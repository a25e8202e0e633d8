package dataplane

import (
	"testing"

	"solros/internal/ninep"
	"solros/internal/pcie"
	"solros/internal/sim"
	"solros/internal/transport"
)

// echoProxy runs a trivial control-plane loop that answers every request
// with an R-message of the given type.
func echoProxy(p *sim.Proc, req, resp *transport.Port) {
	p.Spawn("echo-proxy", func(wp *sim.Proc) {
		for {
			raw, ok := req.Recv(wp)
			if !ok {
				return
			}
			m, err := ninep.Decode(raw)
			if err != nil {
				panic(err)
			}
			out := &ninep.Msg{Type: ninep.Ropen, Tag: m.Tag, Size: int64(m.Fid)}
			resp.Send(wp, out.Encode())
		}
	})
}

func TestCallRoundTripAndTagMatching(t *testing.T) {
	fab := pcie.New(64 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	conn, reqPort, respPort := NewConn(fab, phi, transport.Options{CapBytes: 1 << 20})
	e := sim.NewEngine()
	e.Spawn("main", 0, func(p *sim.Proc) {
		conn.Start(p)
		echoProxy(p, reqPort, respPort)
		// Concurrent callers: responses must route back by tag.
		wg := sim.NewWaitGroup("callers")
		wg.Add(8)
		for i := 0; i < 8; i++ {
			fid := uint32(i + 100)
			p.Spawn("caller", func(cp *sim.Proc) {
				defer cp.DoneWG(wg)
				resp, err := conn.Call(cp, &ninep.Msg{Type: ninep.Topen, Fid: fid})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Size != int64(fid) {
					t.Errorf("caller %d got response for fid %d", fid, resp.Size)
				}
			})
		}
		p.WaitWG(wg)
		conn.Close(p)
	})
	e.MustRun()
}

// TestResponseValidUntilNextCallAsync pins the connection's buffer-ownership
// contract: a response is valid until the connection's next CallAsync,
// which reuses the call record holding it. A response held past that point
// reads as a Reset message, never as some other call's reply.
func TestResponseValidUntilNextCallAsync(t *testing.T) {
	fab := pcie.New(64 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	conn, reqPort, respPort := NewConn(fab, phi, transport.Options{CapBytes: 1 << 20})
	e := sim.NewEngine()
	e.Spawn("main", 0, func(p *sim.Proc) {
		conn.Start(p)
		echoProxy(p, reqPort, respPort)
		held, err := conn.Call(p, &ninep.Msg{Type: ninep.Topen, Fid: 7})
		if err != nil || held.Type != ninep.Ropen || held.Size != 7 {
			t.Errorf("first call: resp %+v err %v", held, err)
			return
		}
		pd := conn.CallAsync(p, &ninep.Msg{Type: ninep.Topen, Fid: 8})
		if held.Type != 0 || held.Tag != 0 || held.Size != 0 || len(held.Data) != 0 {
			t.Errorf("held response after the next CallAsync = %+v, want a Reset message", *held)
		}
		next, err := conn.Wait(p, pd)
		if err != nil || next.Size != 8 {
			t.Errorf("next call: resp %+v err %v", next, err)
			return
		}
		if next != held {
			t.Error("the next call did not reuse the released record")
		}
		conn.Close(p)
	})
	e.MustRun()
}

func TestCallAfterCloseFails(t *testing.T) {
	fab := pcie.New(64 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	conn, reqPort, respPort := NewConn(fab, phi, transport.Options{})
	e := sim.NewEngine()
	e.Spawn("main", 0, func(p *sim.Proc) {
		conn.Start(p)
		// A proxy that never answers; the pending call must fail once
		// the connection closes.
		p.Spawn("mute-proxy", func(wp *sim.Proc) {
			for {
				if _, ok := reqPort.Recv(wp); !ok {
					return
				}
			}
		})
		_ = respPort
		p.Spawn("closer", func(cp *sim.Proc) {
			cp.Advance(100 * sim.Microsecond)
			conn.Close(cp)
		})
		if _, err := conn.Call(p, &ninep.Msg{Type: ninep.Tstat, Name: "/x"}); err == nil {
			t.Error("call survived connection close")
		}
	})
	e.MustRun()
}

func TestAllocBufferDistinct(t *testing.T) {
	fab := pcie.New(64 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	conn, _, _ := NewConn(fab, phi, transport.Options{})
	c := NewFSClient(conn)
	a := c.AllocBuffer(4096)
	b := c.AllocBuffer(4096)
	if a.Addr == b.Addr {
		t.Fatal("buffers share memory")
	}
	a.Data[0] = 1
	if b.Data[0] == 1 && a.Addr+4096 > b.Addr {
		t.Fatal("buffer regions overlap")
	}
}

func TestNetRingPlacement(t *testing.T) {
	fab := pcie.New(64 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	stubOut, stubIn, proxyOut, proxyIn := NewNetRings(fab, phi, transport.Options{})
	// §4.4.1: outbound master at the co-processor, inbound at the host.
	if stubOut.Ring() == stubIn.Ring() {
		t.Fatal("rings must be distinct")
	}
	if stubOut.Ring() != proxyOut.Ring() || stubIn.Ring() != proxyIn.Ring() {
		t.Fatal("stub and proxy ports must share rings")
	}
}

func TestCallAsyncWindowRoutesByTag(t *testing.T) {
	fab := pcie.New(64 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	conn, reqPort, respPort := NewConn(fab, phi, transport.Options{CapBytes: 1 << 20})
	conn.BatchRecv = true
	e := sim.NewEngine()
	e.Spawn("main", 0, func(p *sim.Proc) {
		conn.Start(p)
		echoProxy(p, reqPort, respPort)
		// One proc issues a whole window of async calls before reaping any;
		// each response must still land on its own Pending.
		const window = 8
		var pds [window]*Pending
		for i := range pds {
			pds[i] = conn.CallAsync(p, &ninep.Msg{Type: ninep.Topen, Fid: uint32(200 + i)})
		}
		for i, pd := range pds {
			resp, err := conn.Wait(p, pd)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Size != int64(200+i) {
				t.Errorf("pending %d reaped response for fid %d", i, resp.Size)
			}
		}
		conn.Close(p)
	})
	e.MustRun()
}

// TestTagWraparoundSkipsBusyTags is the regression test for the uint16 tag
// counter: wrapping past 65535 must skip tag 0 and any tag still in flight
// instead of handing out a duplicate.
func TestTagWraparoundSkipsBusyTags(t *testing.T) {
	fab := pcie.New(64 << 20)
	phi := fab.AddPhi("phi0", 0, 16<<20)
	conn, reqPort, respPort := NewConn(fab, phi, transport.Options{CapBytes: 1 << 20})
	e := sim.NewEngine()
	e.Spawn("main", 0, func(p *sim.Proc) {
		conn.Start(p)
		echoProxy(p, reqPort, respPort)
		// White-box: park the counter at the top of the space with two
		// busy tags in its path.
		conn.nextTag = 65534
		conn.pending[65535] = &call{cond: sim.NewCond("busy-hi")}
		conn.pending[1] = &call{cond: sim.NewCond("busy-lo")}
		if tag := conn.allocTag(); tag != 2 {
			t.Errorf("allocTag = %d, want 2 (skip busy 65535, reserved 0, busy 1)", tag)
		}
		delete(conn.pending, 65535)
		delete(conn.pending, 1)
		// End to end: real calls across the wrap still route correctly.
		conn.nextTag = 65530
		wg := sim.NewWaitGroup("wrap-callers")
		wg.Add(16)
		for i := 0; i < 16; i++ {
			fid := uint32(i + 300)
			p.Spawn("wrap-caller", func(cp *sim.Proc) {
				defer cp.DoneWG(wg)
				resp, err := conn.Call(cp, &ninep.Msg{Type: ninep.Topen, Fid: fid})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Size != int64(fid) {
					t.Errorf("caller %d got response for fid %d", fid, resp.Size)
				}
			})
		}
		p.WaitWG(wg)
		if conn.nextTag < 1 || conn.nextTag > 20 {
			t.Errorf("nextTag = %d after 16 calls from 65530, expected wrap into low tags", conn.nextTag)
		}
		conn.Close(p)
	})
	e.MustRun()
}
