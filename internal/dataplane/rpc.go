// Package dataplane implements the co-processor side of Solros: a lean
// RPC stub per OS service (§4.3.1, §4.4.1) plus the event dispatcher that
// demultiplexes inbound completions (§4.4.2). There is deliberately no
// file system or network protocol code here — that is the whole point of
// the architecture.
package dataplane

import (
	"fmt"

	"solros/internal/cpu"
	"solros/internal/model"
	"solros/internal/ninep"
	"solros/internal/pcie"
	"solros/internal/sim"
	"solros/internal/telemetry"
	"solros/internal/transport"
)

// Core-kind aliases used across the package's ring construction.
const (
	cpuPhiKind  = cpu.Phi
	cpuHostKind = cpu.Host
)

// errConnClosed is the Rerror text for calls severed by Close or a crash;
// Call treats it as retryable when Reconnect is set.
const errConnClosed = "connection closed"

// maxReconnects bounds how many channel incarnations one Call will chase
// before giving up and surfacing the error.
const maxReconnects = 8

// Conn is a request/response RPC connection from one co-processor to the
// control plane: a pair of transport rings (both masters in co-processor
// memory, §4.3.1) and a single dispatcher proc that routes responses to
// waiting callers by tag.
type Conn struct {
	Phi    *pcie.Device
	fabric *pcie.Fabric
	opt    transport.Options
	req    *transport.Port // stub -> proxy
	resp   *transport.Port // proxy -> stub

	// BatchRecv makes the dispatcher drain the response ring with
	// RecvBatch, amortizing combiner and PCIe costs across completions
	// arriving close together (pipelined chunk reads). Set before Start.
	BatchRecv bool

	// Deadline arms per-RPC deadlines: a Wait that sees no response
	// within Deadline resends the same encoded request under the same
	// tag and doubles the timeout, up to Retries resends, then fails
	// with a timeout error. Zero (the default) waits forever, the
	// paper's behavior. Requests must be idempotent to replay, which
	// every 9P-style message here is: reads, writes, and opens name
	// absolute offsets and paths.
	Deadline sim.Time
	// Retries bounds same-tag resends per call (default 0).
	Retries int
	// Reconnect makes Call transparently reissue a request that failed
	// with "connection closed" once the channel has been Reset —
	// crash/recovery mode. Close always wins: a closed connection stays
	// closed.
	Reconnect bool

	// Tracing arms causal request tracing: every RPC roots (or joins) a
	// deterministic trace whose context rides inside the ninep frame, so
	// proxy-side work joins the same tree, and resends/replays link to
	// the original attempt. Off by default — tracing appends a trailer
	// to every frame, which changes transfer sizes and therefore
	// virtual-time charges, so the reproduced figures need it off.
	Tracing bool

	// freeCalls is the call-record free list: a record returns here at
	// Wait time and its storage (encode scratch, response, wait cond,
	// Pending handle) is reused by a later CallAsync. That reuse is the
	// connection's buffer-ownership contract: the *ninep.Msg returned by
	// Wait/Call is valid only until the connection's next CallAsync, so
	// callers consume a response before issuing the next request.
	freeCalls []*call

	nextTag uint16
	pending map[uint16]*call
	// stale holds tags retired while responses were still outstanding
	// (timed-out calls, reaped calls with unanswered resends). The
	// dispatcher silently drains that many late responses per tag, and
	// allocTag refuses to reissue the tag until then.
	stale   map[uint16]int
	started bool
	// dead: the dispatcher exited — no response will ever arrive, so
	// waits must fail rather than park. Cleared by Reset.
	dead bool
	// down: Crash severed the rings; cleared by Reset.
	down bool
	// shut: Close was called; permanent.
	shut bool
	// resetCond wakes reconnecting callers after a Reset (or Close).
	resetCond *sim.Cond

	// traceBase salts this connection's trace IDs so two co-processors
	// issuing at the same virtual instant get distinct traces; traceSeq
	// distinguishes same-instant requests from one connection. Both are
	// functions of sim state only — never wall clock — so trace IDs are
	// identical across runs of the same schedule.
	traceBase uint64
	traceSeq  uint64

	tel           *telemetry.Sink
	telCalls      *telemetry.Counter
	telInflight   *telemetry.Gauge
	telRetries    *telemetry.Counter
	telTimeouts   *telemetry.Counter
	telDupDrops   *telemetry.Counter
	telStaleDrops *telemetry.Counter
	telReconnects *telemetry.Counter
}

type call struct {
	resp *ninep.Msg
	cond *sim.Cond
	// raw is the encoded request, kept for same-tag replay. Pooled
	// records reuse its backing array across calls (AppendTo scratch).
	raw []byte
	// sent counts transmissions, got counts responses the dispatcher saw
	// (including duplicates); their difference at reap time is how many
	// late responses the stale table must absorb.
	sent, got int
	// msg is the decoded-response storage: the dispatcher DecodeIntos it
	// and resp points at it, so a pooled record amortizes its payload
	// backing across calls.
	msg ninep.Msg
	// pend is the call's Pending handle, embedded so CallAsync returns
	// it without a per-call allocation.
	pend Pending
}

// Pending is a handle to an RPC issued with CallAsync; redeem it with
// Wait. Handles are single-use and must each be waited exactly once, or
// the tag leaks.
type Pending struct {
	tag   uint16
	typ   ninep.MsgType
	begin sim.Time
	pc    *call
	// ctx is the trace context embedded in the request (zero when
	// tracing is off); Wait's spans and resend markers attach to it.
	ctx telemetry.TraceCtx
}

// NewConn builds the ring pair for a co-processor on the fabric. Both
// master rings live in co-processor memory so the stub's operations are
// local and the fast host crosses the bus (§4.3.1). It returns the stub's
// connection and the proxy-side ports.
func NewConn(f *pcie.Fabric, phi *pcie.Device, opt transport.Options) (*Conn, *transport.Port, *transport.Port) {
	reqRing := transport.NewRing(f, phi, opt)
	respRing := transport.NewRing(f, phi, opt)
	c := &Conn{
		Phi:       phi,
		fabric:    f,
		opt:       opt,
		req:       reqRing.Port(phi, cpu.Phi),
		resp:      respRing.Port(phi, cpu.Phi),
		pending:   make(map[uint16]*call),
		stale:     make(map[uint16]int),
		resetCond: sim.NewCond(phi.Name + "-reset"),
		traceBase: fnv64(phi.Name),
	}
	if tel := f.Telemetry(); tel != nil {
		c.tel = tel
		c.telCalls = tel.Counter("dataplane.calls")
		c.telInflight = tel.Gauge("dataplane.inflight_window")
		c.telRetries = tel.Counter("dataplane.retries")
		c.telTimeouts = tel.Counter("dataplane.timeouts")
		c.telDupDrops = tel.Counter("dataplane.dup_responses_dropped")
		c.telStaleDrops = tel.Counter("dataplane.stale_responses_dropped")
		c.telReconnects = tel.Counter("dataplane.reconnects")
	}
	return c, reqRing.Port(nil, cpu.Host), respRing.Port(nil, cpu.Host)
}

// fnv64 is FNV-1a over s, salting trace IDs per connection.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over the
// (time, conn, seq) tuple so trace IDs look random but are pure
// functions of sim state.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newTraceID mints a deterministic trace ID from the current virtual
// time, the connection's salt, and a per-connection sequence number.
func (c *Conn) newTraceID(p *sim.Proc) uint64 {
	c.traceSeq++
	id := mix64(uint64(p.Now()) ^ c.traceBase ^ (c.traceSeq * 0x9e3779b97f4a7c15))
	if id == 0 {
		id = 1
	}
	return id
}

// startSpan opens an instrumentation span that also roots a fresh trace
// when Tracing is armed and p has no traced span open — the entry points
// of the stub API (Call, the pipelined FS paths) use it so every
// application request becomes exactly one causal tree.
func (c *Conn) startSpan(p *sim.Proc, name string) *telemetry.Span {
	if c.Tracing && c.tel != nil && !c.tel.Current(p).Traced() {
		return c.tel.StartCtx(p, name, telemetry.TraceCtx{Trace: c.newTraceID(p)})
	}
	return c.tel.Start(p, name)
}

// Start launches the connection's dispatcher proc, which runs until the
// response ring is closed.
func (c *Conn) Start(p *sim.Proc) {
	if c.started {
		return
	}
	c.started = true
	c.spawnDispatcher(p)
}

// allocCall checks a call record out of the free list, or allocates a
// fresh one when it is empty. Reused records keep their cond, their
// encode scratch, and their response payload backing.
func (c *Conn) allocCall() *call {
	if n := len(c.freeCalls); n > 0 {
		pc := c.freeCalls[n-1]
		c.freeCalls[n-1] = nil
		c.freeCalls = c.freeCalls[:n-1]
		pc.resp = nil
		pc.sent, pc.got = 0, 0
		pc.msg.Reset()
		return pc
	}
	return &call{cond: sim.NewCond("rpc-call")}
}

// releaseCall returns a retired record to the free list. Only called
// after retire (the tag no longer maps to the record), where the Wait
// lifetime contract makes reuse safe.
func (c *Conn) releaseCall(pc *call) {
	c.freeCalls = append(c.freeCalls, pc)
}

// spawnDispatcher starts a dispatcher bound to the current response ring,
// whose receive buffers it recycles through the port's pool. A dispatcher
// outlived by a Reset (its ring replaced under it) exits without touching
// the connection's state.
func (c *Conn) spawnDispatcher(p *sim.Proc) {
	resp := c.resp
	resp.EnablePool()
	p.Spawn(c.Phi.Name+"-dispatcher", func(dp *sim.Proc) {
		defer func() {
			if resp != c.resp {
				return // superseded by Reset; the new incarnation owns state
			}
			c.dead = true
			c.failPending(dp)
		}()
		single := make([][]byte, 1)
		scratch := make([][]byte, 0, 64)
		for {
			var raws [][]byte
			if c.BatchRecv {
				batch, ok := resp.RecvBatchInto(dp, 0, scratch[:0])
				if !ok {
					return
				}
				scratch = batch // keep the grown backing for the next drain
				raws = batch
			} else {
				raw, ok := resp.Recv(dp)
				if !ok {
					return
				}
				single[0] = raw
				raws = single
			}
			for _, raw := range raws {
				// Route by tag without decoding: dropped (stale, dup)
				// responses never pay a decode, and matched ones decode
				// straight into storage their call record owns.
				tag, ok := ninep.PeekTag(raw)
				if !ok {
					panic("dataplane: corrupt response: " + ninep.ErrShortMessage.Error())
				}
				pc, ok := c.pending[tag]
				if !ok {
					if n := c.stale[tag]; n > 0 {
						// A late response to a retired call (timed out,
						// or reaped off an earlier transmission).
						if n == 1 {
							delete(c.stale, tag)
						} else {
							c.stale[tag] = n - 1
						}
						c.telStaleDrops.Add(1)
						resp.Recycle(raw)
						continue
					}
					panic(fmt.Sprintf("dataplane: response for unknown tag %d", tag))
				}
				pc.got++
				if pc.resp != nil {
					// Duplicate from a resend whose original also made
					// it; first answer wins.
					c.telDupDrops.Add(1)
					resp.Recycle(raw)
					continue
				}
				if err := ninep.DecodeInto(&pc.msg, raw); err != nil {
					panic("dataplane: corrupt response: " + err.Error())
				}
				pc.resp = &pc.msg
				// DecodeInto copied the payload, so the receive buffer can
				// go back to the port's pool right away.
				resp.Recycle(raw)
				if pc.resp.Trace != 0 {
					// Zero-length completion marker on the dispatcher
					// proc: when the reply reached the stub side,
					// within the request's causal tree.
					cs := c.tel.StartCtx(dp, "dataplane.rpc.complete",
						telemetry.TraceCtx{Trace: pc.resp.Trace, Span: pc.resp.Span})
					cs.Tag("type", pc.resp.Type.String())
					cs.End(dp)
				}
				dp.Signal(pc.cond)
			}
		}
	})
}

// failPending wakes every waiter with an error response at teardown.
// Responses that already arrived are kept so completed-but-unreaped async
// calls still return their real result.
func (c *Conn) failPending(dp *sim.Proc) {
	for tag, pc := range c.pending {
		if pc.resp == nil {
			pc.resp = &ninep.Msg{Type: ninep.Rerror, Tag: tag, Err: errConnClosed}
		}
		dp.Broadcast(pc.cond)
	}
}

// allocTag hands out the next request tag, skipping tags still held by
// in-flight calls or owed late responses: nextTag is a uint16, so after
// 65k calls a naive increment would collide with a pending tag and panic
// the dispatcher. Tag 0 stays reserved (the first tag ever issued is 1).
func (c *Conn) allocTag() uint16 {
	if len(c.pending)+len(c.stale) >= (1<<16)-1 {
		panic("dataplane: all 65535 tags in flight")
	}
	for {
		c.nextTag++
		if c.nextTag == 0 {
			continue
		}
		if _, busy := c.pending[c.nextTag]; busy {
			continue
		}
		if _, owed := c.stale[c.nextTag]; owed {
			continue
		}
		return c.nextTag
	}
}

// CallAsync sends m and returns a Pending handle without waiting for the
// response; redeem it with Wait. The stub cost charged here is the same
// per-syscall data-plane contribution Call pays (Figure 13a) — pipelining
// overlaps the remote legs, not the local marshal.
func (c *Conn) CallAsync(p *sim.Proc, m *ninep.Msg) *Pending {
	if !c.started {
		panic("dataplane: Call before Start")
	}
	begin := p.Now()
	p.Advance(model.FSStubCost)
	tag := c.allocTag()
	m.Tag = tag
	var issue *telemetry.Span
	var ctx telemetry.TraceCtx
	if c.Tracing && c.tel != nil {
		// The issue span is the wire-visible attempt: its context is
		// embedded in the frame, so the proxy's serve span and this
		// call's wait span both become its children — also across
		// same-tag resends, which reuse the identical encoded bytes.
		issue = c.startSpan(p, "dataplane.rpc.issue")
		issue.Tag("type", m.Type.String())
		issue.TagInt("tag", int64(tag))
		ctx = issue.Ctx()
		m.Trace, m.Span = ctx.Trace, ctx.Span
	}
	pc := c.allocCall()
	c.pending[tag] = pc
	c.telInflight.Set(int64(len(c.pending)))
	pc.pend = Pending{tag: tag, typ: m.Type, begin: begin, pc: pc, ctx: ctx}
	if c.dead || c.down || c.shut {
		// No dispatcher will ever answer; fail the call in place instead
		// of sending into a closed ring and parking forever.
		pc.resp = &ninep.Msg{Type: ninep.Rerror, Tag: tag, Err: errConnClosed}
		issue.End(p)
		return &pc.pend
	}
	pc.raw = m.AppendTo(pc.raw[:0])
	pc.sent = 1
	c.req.Send(p, pc.raw)
	issue.End(p)
	return &pc.pend
}

// Wait blocks until pd's response arrives, releases its tag, and returns
// the response (or its Rerror as a Go error). With a Deadline armed, a
// silent window triggers a same-tag resend with exponentially growing
// timeouts; Retries exhausted fails the call and retires its tag to the
// stale table. A connection whose dispatcher has exited (Close, crash)
// fails the wait immediately instead of parking forever. The response is
// valid until the connection's next CallAsync.
func (c *Conn) Wait(p *sim.Proc, pd *Pending) (*ninep.Msg, error) {
	var wait *telemetry.Span
	if pd.ctx.Traced() {
		// Child of the issue span, like the proxy's serve span — the
		// critical-path sweep carves it into ring_wait/reply_wait
		// around the matching serve window.
		wait = c.tel.StartCtx(p, "dataplane.rpc.wait", pd.ctx)
		defer wait.End(p)
	}
	pc := pd.pc
	timeout := c.Deadline
	resends := 0
	for pc.resp == nil {
		if c.dead || c.down || c.shut {
			pc.resp = &ninep.Msg{Type: ninep.Rerror, Tag: pd.tag, Err: errConnClosed}
			break
		}
		if timeout <= 0 {
			p.Wait(pc.cond)
			continue
		}
		if !p.WaitTimeout(pc.cond, timeout) {
			continue // woken by the dispatcher; re-check
		}
		if resends >= c.Retries {
			c.telTimeouts.Add(1)
			c.retire(pd)
			if wait != nil {
				wait.Tag("result", "timeout")
				wait.TagInt("attempts", int64(resends+1))
			}
			err := fmt.Errorf("dataplane: %s tag %d timed out after %d attempts",
				pd.typ, pd.tag, resends+1)
			// Late responses drain via the stale table by tag, never
			// through the record, so it can be reused immediately.
			c.releaseCall(pc)
			return nil, err
		}
		// Idempotent same-tag replay: resend the identical encoded
		// request and double the window (exponential backoff).
		resends++
		timeout <<= 1
		c.telRetries.Add(1)
		pc.sent++
		if pd.ctx.Traced() {
			// Zero-length marker linking the replay to the original
			// attempt: same trace, same parent issue span.
			rs := c.tel.StartCtx(p, "dataplane.rpc.resend", pd.ctx)
			rs.TagInt("attempt", int64(resends))
			rs.TagInt("tag", int64(pd.tag))
			rs.End(p)
		}
		c.req.Send(p, pc.raw)
	}
	c.retire(pd)
	c.telCalls.Add(1)
	if c.tel != nil {
		// Guarded so the histogram-name concatenations stay off the
		// telemetry-disabled hot path entirely.
		c.tel.Histogram("dataplane.rpc."+pd.typ.String()).ObserveAt(p, p.Now()-pd.begin)
		if c.tel.WindowsEnabled() && c.Phi != nil {
			// Per-channel latency series — the per-channel SLO surface. Gated
			// on windows so the cumulative text report keeps its seed shape
			// when the continuous-observability knobs are off.
			c.tel.Histogram("dataplane.rpc."+pd.typ.String()+"."+c.Phi.Name).ObserveAt(p, p.Now()-pd.begin)
		}
	}
	// The record goes back to the free list here; the returned response
	// (stored in the record) stays valid until the connection's next
	// CallAsync reuses it.
	c.releaseCall(pc)
	if err := pc.resp.Error(); err != nil {
		return nil, err
	}
	return pc.resp, nil
}

// retire releases pd's tag. If transmissions outnumber the responses seen
// so far, the difference is parked in the stale table so the dispatcher
// can recognize (and drop) the stragglers instead of panicking.
func (c *Conn) retire(pd *Pending) {
	if _, ok := c.pending[pd.tag]; !ok {
		return // already retired
	}
	delete(c.pending, pd.tag)
	if outstanding := pd.pc.sent - pd.pc.got; outstanding > 0 {
		c.stale[pd.tag] += outstanding
	}
	c.telInflight.Set(int64(len(c.pending)))
}

// Call sends m and blocks until its response arrives. The stub cost
// charged here is the whole data-plane OS contribution per syscall
// (Figure 13a): marshal, ring operation, demultiplex. With Reconnect set,
// a call severed by a channel crash waits for the Reset and reissues
// itself on the fresh rings.
func (c *Conn) Call(p *sim.Proc, m *ninep.Msg) (*ninep.Msg, error) {
	sp := c.startSpan(p, "dataplane.call")
	sp.Tag("type", m.Type.String())
	defer sp.End(p)
	for attempt := 0; ; attempt++ {
		pd := c.CallAsync(p, m)
		resp, err := c.Wait(p, pd)
		if err != nil && err.Error() == errConnClosed &&
			c.Reconnect && attempt < maxReconnects && c.awaitReset(p) {
			c.telReconnects.Add(1)
			continue
		}
		return resp, err
	}
}

// awaitReset parks until the channel is serviceable again; false means the
// connection was closed for good.
func (c *Conn) awaitReset(p *sim.Proc) bool {
	for (c.down || c.dead) && !c.shut {
		p.Wait(c.resetCond)
	}
	return !c.shut
}

// Rings exposes the connection's request and response rings, for oracles
// and diagnostics.
func (c *Conn) Rings() (req, resp *transport.Ring) {
	return c.req.Ring(), c.resp.Ring()
}

// CheckTags validates the connection's tag-window invariants, the
// dataplane half of the exploration oracle layer:
//
//   - no tag is simultaneously pending and stale (a live call's responses
//     would be dropped as stragglers, or a straggler matched to it);
//   - each stale entry owes at most Retries+1 responses (one per
//     transmission of the retired call);
//   - the combined window stays below the 16-bit tag space, so allocTag
//     can always find a free tag.
func (c *Conn) CheckTags() error {
	for tag := range c.pending {
		if n, owed := c.stale[tag]; owed {
			return fmt.Errorf("dataplane: tag %d live in pending and owes %d stale responses", tag, n)
		}
	}
	maxOwed := c.Retries + 1
	for tag, n := range c.stale {
		if n <= 0 {
			return fmt.Errorf("dataplane: stale tag %d owes %d responses (must be positive)", tag, n)
		}
		if n > maxOwed {
			return fmt.Errorf("dataplane: stale tag %d owes %d responses, max %d transmissions", tag, n, maxOwed)
		}
	}
	if window := len(c.pending) + len(c.stale); window >= (1<<16)-1 {
		return fmt.Errorf("dataplane: tag window %d fills the 16-bit tag space", window)
	}
	return nil
}

// RingStats reports request-ring messages sent, response-ring messages
// received, and request payload bytes, for machine status reports.
func (c *Conn) RingStats() (sent, received, sentBytes int64) {
	reqSent, _, reqBytes := c.req.Ring().Stats()
	_, respRecv, _ := c.resp.Ring().Stats()
	return reqSent, respRecv, reqBytes
}

// Close shuts down both rings; in-flight calls fail with "connection
// closed" and the dispatcher exits. Close is permanent: it defeats
// Reconnect and refuses later Resets.
func (c *Conn) Close(p *sim.Proc) {
	c.shut = true
	c.req.Close(p)
	c.resp.Close(p)
	p.Broadcast(c.resetCond)
}

// Crash severs the channel as a fault: both rings close, pending tags will
// fail, and the dispatcher drains and exits — but unlike Close the
// connection can be Reset. Idempotent while down.
func (c *Conn) Crash(p *sim.Proc) {
	if c.shut || c.down {
		return
	}
	c.down = true
	c.req.Close(p)
	c.resp.Close(p)
}

// Reset rebuilds a crashed connection: anything still pending fails with
// "connection closed", a fresh ring pair is allocated in co-processor
// memory, a new dispatcher starts, and reconnect waiters wake. It returns
// the proxy-side ports of the new rings (nil after Close). Tags owed late
// responses on the dead rings are forgiven — those responses can never
// arrive.
func (c *Conn) Reset(p *sim.Proc) (reqPort, respPort *transport.Port) {
	if c.shut {
		return nil, nil
	}
	c.failPending(p)
	reqRing := transport.NewRing(c.fabric, c.Phi, c.opt)
	respRing := transport.NewRing(c.fabric, c.Phi, c.opt)
	c.req = reqRing.Port(c.Phi, cpu.Phi)
	c.resp = respRing.Port(c.Phi, cpu.Phi)
	c.stale = make(map[uint16]int)
	c.dead = false
	c.down = false
	if c.started {
		c.spawnDispatcher(p)
	}
	p.Broadcast(c.resetCond)
	return reqRing.Port(nil, cpu.Host), respRing.Port(nil, cpu.Host)
}
