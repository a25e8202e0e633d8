package transport

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"solros/internal/cpu"
	"solros/internal/sim"
)

// TestSendVecMatchesSend pins the vectored send to the joined send: same
// bytes on the wire, same virtual time.
func TestSendVecMatchesSend(t *testing.T) {
	hdr := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	payload := bytes.Repeat([]byte{0xCD}, 777)
	joined := append(append([]byte(nil), hdr...), payload...)

	run := func(send func(pt *Port, p *sim.Proc)) ([]byte, sim.Time) {
		f, phi := newFabric()
		ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 64})
		sender := ring.Port(nil, cpu.Host)
		receiver := ring.Port(phi, cpu.Phi)
		var got []byte
		var at sim.Time
		e := sim.NewEngine()
		e.Spawn("sender", 0, func(p *sim.Proc) { send(sender, p) })
		e.Spawn("receiver", 0, func(p *sim.Proc) {
			got, _ = receiver.Recv(p)
			at = p.Now()
		})
		e.MustRun()
		return got, at
	}

	wantMsg, wantAt := run(func(pt *Port, p *sim.Proc) { pt.Send(p, joined) })
	gotMsg, gotAt := run(func(pt *Port, p *sim.Proc) { pt.SendVec(p, hdr, payload) })
	if !bytes.Equal(gotMsg, wantMsg) {
		t.Fatalf("SendVec wire bytes differ from Send")
	}
	if gotAt != wantAt {
		t.Fatalf("SendVec completion time %v != Send %v", gotAt, wantAt)
	}
}

// TestRecvBatchIntoReusesBacking checks the caller-owned destination path
// never reallocates the vector when the scratch has capacity.
func TestRecvBatchIntoReusesBacking(t *testing.T) {
	f, phi := newFabric()
	ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 64})
	sender := ring.Port(phi, cpu.Phi)
	receiver := ring.Port(nil, cpu.Host)

	scratch := make([][]byte, 0, 8)
	e := sim.NewEngine()
	e.Spawn("sender", 0, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			sender.Send(p, []byte{byte(i)})
		}
	})
	e.Spawn("receiver", 0, func(p *sim.Proc) {
		got := 0
		for got < 8 {
			msgs, ok := receiver.RecvBatchInto(p, 8, scratch[:0])
			if !ok {
				break
			}
			if cap(msgs) != cap(scratch) {
				t.Errorf("destination reallocated: cap %d -> %d", cap(scratch), cap(msgs))
			}
			for _, m := range msgs {
				if m[0] != byte(got) {
					t.Errorf("out of order: got %d want %d", m[0], got)
				}
				got++
			}
		}
	})
	e.MustRun()
}

// TestPooledRecvRecycles checks that an enabled pool feeds recycled
// buffers back to the Recv family and that payloads survive recycling of
// the previous buffer.
func TestPooledRecvRecycles(t *testing.T) {
	f, phi := newFabric()
	ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 64})
	sender := ring.Port(phi, cpu.Phi)
	receiver := ring.Port(nil, cpu.Host)
	receiver.EnablePool()

	const n = 50
	e := sim.NewEngine()
	e.Spawn("sender", 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sender.Send(p, bytes.Repeat([]byte{byte(i)}, 512))
		}
	})
	e.Spawn("receiver", 0, func(p *sim.Proc) {
		var prev []byte
		for i := 0; i < n; i++ {
			msg, ok := receiver.Recv(p)
			if !ok {
				t.Error("ring closed early")
				return
			}
			if msg[0] != byte(i) || msg[511] != byte(i) {
				t.Errorf("message %d corrupt after recycle", i)
			}
			receiver.Recycle(prev) // nil first time: must be a no-op
			prev = msg
		}
	})
	e.MustRun()
	gets, news := receiver.PoolStats()
	if gets != n {
		t.Fatalf("pool gets = %d, want %d", gets, n)
	}
	// First Get allocates; with one buffer always in flight the second
	// does too; everything after that recycles.
	if news > 2 {
		t.Fatalf("pool allocated %d times, want <= 2", news)
	}
}

// allocSlack is how many mallocs a measured window may contain without any
// per-op allocation: runtime.MemStats is process-wide, and the runtime
// allocates now and then (a new OS thread costs a handful). A real per-op
// allocation costs at least one malloc per iteration, far above it.
// allocWindows is how many windows a gate may measure, keeping the
// smallest count: a stray burst rarely lands twice, a per-op allocation
// lands in every window.
const allocSlack, allocWindows = 8, 3

// TestTransportAllocFree is the committed regression gate for the
// transport half of the zero-alloc hot path: with a pooled receive port
// and recycling consumer, a steady-state send -> recv -> recycle cycle
// must not touch the heap. Measured with runtime.MemStats inside the sim
// run (testing.AllocsPerRun cannot re-enter a finished engine).
func TestTransportAllocFree(t *testing.T) {
	f, phi := newFabric()
	ring := NewRing(f, phi, Options{CapBytes: 1 << 16, Slots: 64})
	sender := ring.Port(nil, cpu.Host)
	receiver := ring.Port(phi, cpu.Phi)
	receiver.EnablePool()

	msg := make([]byte, 2048)
	const iters = 2000
	mallocs := uint64(math.MaxUint64)
	e := sim.NewEngine()
	e.Spawn("main", 0, func(p *sim.Proc) {
		for i := 0; i < 64; i++ { // warm the pool and every lazy path
			sender.Send(p, msg)
			b, _ := receiver.Recv(p)
			receiver.Recycle(b)
		}
		for w := 0; w < allocWindows && mallocs > allocSlack; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < iters; i++ {
				sender.Send(p, msg)
				b, _ := receiver.Recv(p)
				receiver.Recycle(b)
			}
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
	})
	e.MustRun()
	if mallocs > allocSlack {
		t.Fatalf("steady-state send->recv: %d mallocs in the best of %d windows of %d ops, want 0 (+%d slack)",
			mallocs, allocWindows, iters, allocSlack)
	}
}
