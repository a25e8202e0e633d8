// Package transport implements the Solros transport service (§4.2): a
// master/shadow ring buffer over the PCIe fabric. The master ring allocates
// real storage in one endpoint's memory; the shadow endpoint reaches it
// through the system-mapped PCIe window, paying fabric costs for every
// control-variable access and data copy.
//
// Three of the paper's design decisions are switchable so their effect can
// be measured (Figures 9 and 10):
//
//   - control-variable replication: Lazy (replicate head/tail, flush once
//     per combine batch) vs Eager (single copy in master memory, every
//     shadow-side operation crosses PCIe);
//   - copy mechanism: Memcpy, DMA, or Adaptive (size-dependent);
//   - master placement: at either endpoint.
//
// The ring runs inside the sim virtual-time kernel; real payload bytes move
// through the master memory region.
package transport

import (
	"errors"
	"fmt"

	"solros/internal/bufpool"
	"solros/internal/cpu"
	"solros/internal/model"
	"solros/internal/pcie"
	"solros/internal/sim"
	"solros/internal/telemetry"
)

// ErrWouldBlock mirrors EWOULDBLOCK from the paper's API: the ring is full
// (enqueue) or has no ready element (dequeue).
var ErrWouldBlock = errors.New("transport: operation would block")

// ErrClosed is returned by TrySend once the ring has been closed.
var ErrClosed = errors.New("transport: ring closed")

// FaultInjector is the ring's hook into a fault plan (consumer-side
// interface; implemented by internal/faults). RingSendDrop is consulted on
// every send to a lossy-marked ring — true silently discards the message,
// so only an end-to-end retry recovers it. RingRecvStall is consulted on
// every dequeue attempt and returns extra latency to charge.
type FaultInjector interface {
	RingSendDrop(p *sim.Proc) bool
	RingRecvStall(p *sim.Proc) sim.Time
}

// UpdateMode selects how the ring's head/tail control variables are kept
// coherent across the PCIe bus (§4.2.4).
type UpdateMode int

const (
	// Lazy replicates control variables on both sides; the replica is
	// refreshed only when the ring appears full/empty and flushed once
	// per combining batch.
	Lazy UpdateMode = iota
	// Eager keeps a single copy in master memory; every shadow-side
	// operation issues PCIe transactions to read and update them.
	Eager
)

func (m UpdateMode) String() string {
	if m == Lazy {
		return "lazy"
	}
	return "eager"
}

// Options configures a Ring.
type Options struct {
	// CapBytes is the payload capacity. Default 1 MB.
	CapBytes int64
	// Slots bounds the element count. Default model.RingDefaultSlots.
	Slots int
	// Update selects control-variable handling. Default Lazy.
	Update UpdateMode
	// Copy selects the data-copy mechanism. Default Adaptive.
	Copy pcie.Mech
	// Batch is the combining batch size. Default model.CombineBatch.
	Batch int
	// BugReadyBeforeCopy is a TEST-ONLY hook that reintroduces the
	// ordering bug the three-phase protocol exists to prevent: the sender
	// publishes an element's ready flag before the payload copy completes,
	// so a receiver (or the ring oracle) can observe a ready slot whose
	// bytes are still in flight. Used to prove the explorer catches it.
	BugReadyBeforeCopy bool
}

func (o *Options) fill() {
	if o.CapBytes == 0 {
		o.CapBytes = 1 << 20
	}
	if o.Slots == 0 {
		o.Slots = model.RingDefaultSlots
	}
	if o.Batch == 0 {
		o.Batch = model.CombineBatch
	}
}

// entry is one element's metadata. All access is serialized by the sim
// kernel; costs for remote visibility are charged explicitly.
type entry struct {
	size  int
	off   int64
	alloc int64
	state uint32 // slotFree..slotDone, same lifecycle as package ringbuf
	// copied records that the payload copy into master memory finished;
	// the ring invariant "ready implies copied" is what makes the
	// published flag safe to act on (§4.1's decoupled publish).
	copied bool
}

const (
	entFree uint32 = iota
	entReserved
	entReady
	entTaken
	entDone
)

// side tracks the per-endpoint combining and replication state.
type side struct {
	lock       *sim.Lock
	opsInBatch int
}

// Ring is a master/shadow ring buffer over PCIe.
type Ring struct {
	fabric *pcie.Fabric
	// masterDev is where the storage lives; nil means host RAM.
	masterDev *pcie.Device
	base      int64 // offset of the payload region in master memory
	capBytes  int64
	opt       Options

	entries  []entry
	nslots   uint64
	tailSlot uint64
	headSlot uint64
	freeSlot uint64
	tailByte int64
	freeByte int64

	enq side
	deq side

	spaceCond *sim.Cond
	dataCond  *sim.Cond

	closed bool

	// inj, when set, perturbs ring operations; lossy additionally arms
	// message drops (only meaningful under an end-to-end retry story).
	inj   FaultInjector
	lossy bool

	// stats
	sent, received int64
	sentBytes      int64

	// inflightSend/inflightRecv count copy phases in progress outside the
	// combiner locks; the ring is quiescent for oracle purposes only when
	// both are zero and neither combiner is held.
	inflightSend int
	inflightRecv int

	// last* remember the cursors seen by the previous Check call so the
	// oracle can assert monotonicity across observations.
	lastFree, lastHead, lastTail uint64

	// telemetry handles (nil-safe no-ops when the fabric has no sink)
	tel          *telemetry.Sink
	telSent      *telemetry.Counter
	telReceived  *telemetry.Counter
	telSentBytes *telemetry.Counter
	telSendBlock *telemetry.Counter
	telRecvBlock *telemetry.Counter
	telCombine   *telemetry.Hist
	telBatchOut  *telemetry.Hist
	telOccupancy *telemetry.Gauge
	telQueue     *telemetry.Queue
}

// NewRing allocates a ring whose master storage lives on masterDev (nil =
// host RAM) of the given fabric.
func NewRing(f *pcie.Fabric, masterDev *pcie.Device, opt Options) *Ring {
	opt.fill()
	mem := f.HostRAM
	if masterDev != nil {
		mem = masterDev.Mem
	}
	r := &Ring{
		fabric:    f,
		masterDev: masterDev,
		base:      mem.Alloc(opt.CapBytes),
		capBytes:  opt.CapBytes,
		opt:       opt,
		entries:   make([]entry, opt.Slots),
		nslots:    uint64(opt.Slots),
		spaceCond: sim.NewCond("ring-space"),
		dataCond:  sim.NewCond("ring-data"),
	}
	r.enq.lock = sim.NewLock("ring-enq")
	r.deq.lock = sim.NewLock("ring-deq")
	if tel := f.Telemetry(); tel != nil {
		r.tel = tel
		r.telSent = tel.Counter("transport.sent")
		r.telReceived = tel.Counter("transport.received")
		r.telSentBytes = tel.Counter("transport.sent_bytes")
		r.telSendBlock = tel.Counter("transport.send_wouldblock")
		r.telRecvBlock = tel.Counter("transport.recv_wouldblock")
		r.telCombine = tel.HistogramN("transport.combine_batch")
		r.telBatchOut = tel.HistogramN("transport.recv_batch_size")
		r.telOccupancy = tel.Gauge("transport.ring_occupancy")
		r.telQueue = tel.Queue("transport.ring")
	}
	return r
}

// Port is one endpoint's handle on the ring: the device the accessing code
// runs on (nil = host) and its core kind determine every fabric charge.
type Port struct {
	ring *Ring
	dev  *pcie.Device
	kind cpu.Kind

	// pool, when enabled, recycles receive buffers through a per-port
	// free list: the Recv family checks buffers out and the consumer
	// checks them back in with Recycle once decoded. A buffer that is
	// never recycled is ordinary garbage — pooling changes allocation
	// rates, never correctness — so multiple serve workers sharing one
	// port need no coordination beyond the sim kernel's serialization.
	pool *bufpool.Pool
}

// Port returns an endpoint handle for code running on dev (nil = host)
// with the given core kind.
func (r *Ring) Port(dev *pcie.Device, kind cpu.Kind) *Port {
	return &Port{ring: r, dev: dev, kind: kind}
}

// Ring returns the port's underlying ring.
func (pt *Port) Ring() *Ring { return pt.ring }

// EnablePool turns on receive-buffer pooling for this port.
func (pt *Port) EnablePool() {
	if pt.pool == nil {
		pt.pool = new(bufpool.Pool)
	}
}

// Recycle returns a buffer handed out by this port's Recv family to the
// pool; a no-op when pooling is off (or for a nil buffer), so consumers
// can call it unconditionally.
func (pt *Port) Recycle(buf []byte) {
	if pt.pool != nil {
		pt.pool.Put(buf)
	}
}

// PoolStats reports the receive pool's checkout count and how many
// checkouts had to allocate; zeros when pooling is off.
func (pt *Port) PoolStats() (gets, news int64) {
	if pt.pool == nil {
		return 0, 0
	}
	return pt.pool.Stats()
}

// getBuf checks a length-n receive buffer out of the pool, or allocates
// one when pooling is off.
func (pt *Port) getBuf(n int) []byte {
	if pt.pool != nil {
		return pt.pool.Get(n)
	}
	return make([]byte, n)
}

// SetInjector installs a plan-driven fault injector. lossy additionally
// arms send drops; set it only for rings whose callers retry end to end
// (RPC request/response rings under deadlines), or messages vanish for
// good. nil disables injection.
func (r *Ring) SetInjector(inj FaultInjector, lossy bool) {
	r.inj = inj
	r.lossy = lossy && inj != nil
}

// recvStall charges any injected dequeue stall.
func (r *Ring) recvStall(p *sim.Proc) {
	if r.inj == nil {
		return
	}
	if d := r.inj.RingRecvStall(p); d > 0 {
		p.Advance(d)
	}
}

// isMaster reports whether this port accesses the ring's storage locally.
func (pt *Port) isMaster() bool { return pt.dev == pt.ring.masterDev }

// remoteTxn charges one PCIe transaction if the port is the shadow side;
// master-side control accesses are local and free.
func (pt *Port) remoteTxn(p *sim.Proc) {
	if !pt.isMaster() {
		pt.ring.fabric.Txn(p, pt.kind)
	}
}

// combineEnter models taking a slot in the combining queue: one local
// atomic swap plus, if contended, a cache-line bounce.
func combineEnter(p *sim.Proc, s *side) {
	p.Advance(model.AtomicLocalCost)
	if s.lock.Held() {
		p.Advance(model.CachelineBounceCost)
	}
	p.Acquire(s.lock)
	s.opsInBatch++
}

// combineExit releases the combiner slot, flushing replicated control
// variables once per batch in Lazy mode (1 PCIe txn when remote).
func (pt *Port) combineExit(p *sim.Proc, s *side, batch int) {
	if pt.ring.opt.Update == Lazy && s.opsInBatch >= batch {
		pt.ring.telCombine.ObserveAt(p, sim.Time(s.opsInBatch))
		s.opsInBatch = 0
		pt.remoteTxn(p) // push original value to the remote replica
	}
	p.Release(s.lock)
}

// TrySend enqueues msg without blocking; ErrWouldBlock when the ring is
// full. The sequence models the paper's three-phase API: reserve under the
// combiner, copy outside it, publish.
func (pt *Port) TrySend(p *sim.Proc, msg []byte) error {
	return pt.trySendVec(p, msg, nil)
}

// TrySendVec enqueues the concatenation of hdr and payload as ONE message
// without joining them first — the writev of the zero-alloc hot path. The
// two slices gather-copy straight into the reserved ring slot, charged as
// a single transfer of the combined size, so the cost (and the receiver's
// view) is byte-identical to TrySend(hdr+payload) minus the staging
// buffer.
func (pt *Port) TrySendVec(p *sim.Proc, hdr, payload []byte) error {
	return pt.trySendVec(p, hdr, payload)
}

// SendVec blocks until the two-slice message is enqueued; same close and
// panic semantics as Send.
func (pt *Port) SendVec(p *sim.Proc, hdr, payload []byte) {
	for {
		err := pt.trySendVec(p, hdr, payload)
		if err == nil || err == ErrClosed {
			return
		}
		if err != ErrWouldBlock {
			panic("transport: " + err.Error())
		}
		if pt.ring.closed {
			return
		}
		p.Wait(pt.ring.spaceCond)
	}
}

func (pt *Port) trySendVec(p *sim.Proc, msg, payload []byte) error {
	r := pt.ring
	if r.closed {
		return ErrClosed
	}
	size := len(msg) + len(payload)
	need := (int64(size) + 7) &^ 7
	if need > r.capBytes {
		return errors.New("transport: message larger than ring")
	}
	if r.lossy && r.inj.RingSendDrop(p) {
		// The message vanishes without being enqueued; the sender sees a
		// successful send, so only an end-to-end retry recovers it.
		return nil
	}
	sp := r.tel.Start(p, "transport.send")
	sp.TagInt("bytes", int64(size))
	cs := r.tel.Start(p, "transport.combine")
	combineEnter(p, &r.enq)
	if r.opt.Update == Eager {
		// Read head and update tail across the bus every time.
		pt.remoteTxn(p)
		pt.remoteTxn(p)
	}
	ent, ok := r.reserve(size, need)
	if !ok {
		// Ring looks full: Lazy mode refreshes the head replica from
		// the remote original and retries once (§4.2.4).
		if r.opt.Update == Lazy {
			pt.remoteTxn(p)
			r.reclaim()
			ent, ok = r.reserve(size, need)
		}
		if !ok {
			pt.combineExit(p, &r.enq, r.opt.Batch)
			cs.End(p)
			r.telSendBlock.Add(1)
			sp.Tag("result", "wouldblock")
			sp.End(p)
			return ErrWouldBlock
		}
	}
	pt.combineExit(p, &r.enq, r.opt.Batch)
	cs.End(p)

	// Copy payload into master memory (outside the combiner, so copies
	// from concurrent senders overlap).
	r.inflightSend++
	loc := pcie.Loc{Dev: r.masterDev, Off: r.base + ent.off}
	if r.opt.BugReadyBeforeCopy {
		// Deliberately wrong order (see Options.BugReadyBeforeCopy).
		ent.state = entReady
		pt.copyIn(p, loc, msg, payload)
		ent.copied = true
	} else {
		pt.copyIn(p, loc, msg, payload)
		// Publish: mark ready. Remote publication rides on the copy's last
		// transaction (write-combined header), so no extra charge.
		ent.copied = true
		ent.state = entReady
	}
	r.inflightSend--
	r.sent++
	r.sentBytes += int64(size)
	r.telSent.Add(1)
	r.telSentBytes.Add(int64(size))
	r.telOccupancy.Set(int64(r.Len()))
	r.telQueue.Arrive(p)
	sp.End(p)
	p.Signal(r.dataCond)
	return nil
}

// copyIn moves one message (optionally gathered from two slices) into
// master memory at loc.
func (pt *Port) copyIn(p *sim.Proc, loc pcie.Loc, msg, payload []byte) {
	r := pt.ring
	if payload == nil {
		r.fabric.CopyIn(p, pt.dev, pt.kind, loc, msg, r.opt.Copy)
		return
	}
	r.fabric.CopyInVec(p, pt.dev, pt.kind, loc, msg, payload, r.opt.Copy)
}

// Send blocks until msg is enqueued. Messages sent to a closed ring are
// silently dropped (the peer is being torn down). Send panics on
// non-retryable errors (message larger than the ring), which indicate a
// mis-sized channel.
func (pt *Port) Send(p *sim.Proc, msg []byte) {
	pt.SendVec(p, msg, nil)
}

// TryRecv dequeues the oldest ready element without blocking, returning
// its payload; ErrWouldBlock if none is ready.
func (pt *Port) TryRecv(p *sim.Proc) ([]byte, error) {
	var one [1][]byte
	msgs, err := pt.dequeue(p, 1, one[:0], false)
	if err != nil {
		return nil, err
	}
	return msgs[0], nil
}

// TryRecvBatch dequeues up to max ready elements (capped at Options.Batch;
// max <= 0 means a full batch) in arrival order, under ONE combiner
// acquisition and — in Lazy mode — at most one control-variable refresh
// and one deferred flush. TryRecv pays those costs per element; draining k
// elements here amortizes them k ways, which is the dequeue-side analogue
// of the paper's combining argument (§4.2). Returns ErrWouldBlock when
// nothing is ready.
func (pt *Port) TryRecvBatch(p *sim.Proc, max int) ([][]byte, error) {
	return pt.TryRecvBatchInto(p, max, nil)
}

// batchPass bounds how many elements one combining pass handles with
// stack-side bookkeeping; larger drains fall back to a heap vector.
const batchPass = 64

// TryRecvBatchInto is TryRecvBatch with a caller-owned destination: the
// dequeued payloads are appended to dst (reusing its backing array), so a
// serve loop that keeps a per-worker scratch [][]byte drains whole batches
// without allocating the vector. On ErrWouldBlock dst is returned
// unchanged.
func (pt *Port) TryRecvBatchInto(p *sim.Proc, max int, dst [][]byte) ([][]byte, error) {
	return pt.dequeue(p, max, dst, true)
}

// dequeue is the one dequeue core behind the Recv family: it drains up to
// max ready elements (capped at Options.Batch; max <= 0 means a full
// batch) under one combiner pass and appends their payloads to dst. batch
// selects the batch flavour's telemetry (span name, batch-size histogram)
// and wakes every blocked sender instead of one; otherwise single and
// batch receives are the same operation.
func (pt *Port) dequeue(p *sim.Proc, max int, dst [][]byte, batch bool) ([][]byte, error) {
	r := pt.ring
	if max <= 0 || max > r.opt.Batch {
		max = r.opt.Batch
	}
	r.recvStall(p)
	name := "transport.recv"
	if batch {
		name = "transport.recv_batch"
	}
	sp := r.tel.Start(p, name)
	cs := r.tel.Start(p, "transport.combine")
	combineEnter(p, &r.deq)
	if r.opt.Update == Eager {
		pt.remoteTxn(p)
		pt.remoteTxn(p)
	}
	var entsArr [batchPass]*entry
	ents := entsArr[:0]
	if max > batchPass {
		ents = make([]*entry, 0, max)
	}
	for len(ents) < max {
		ent, ok := r.take()
		if !ok {
			if len(ents) == 0 && r.opt.Update == Lazy {
				// Refresh the tail replica once and retry (poll across
				// the bus) — never again mid-batch: whatever became
				// visible is what this batch drains.
				pt.remoteTxn(p)
				if ent, ok = r.take(); ok {
					ents = append(ents, ent)
					continue
				}
			}
			break
		}
		ents = append(ents, ent)
	}
	// The drain counts as len(ents) combining ops that shared one pass;
	// credit the extras so Lazy keeps its flush-once-per-Batch cadence.
	if len(ents) > 1 {
		r.deq.opsInBatch += len(ents) - 1
	}
	pt.combineExit(p, &r.deq, r.opt.Batch)
	cs.End(p)
	if len(ents) == 0 {
		r.telRecvBlock.Add(1)
		sp.Tag("result", "wouldblock")
		sp.End(p)
		return dst, ErrWouldBlock
	}

	r.inflightRecv++
	msgs := dst
	var payload int64
	for _, ent := range ents {
		buf := pt.getBuf(ent.size)
		loc := pcie.Loc{Dev: r.masterDev, Off: r.base + ent.off}
		r.fabric.CopyOut(p, pt.dev, pt.kind, loc, buf, r.opt.Copy)
		ent.state = entDone
		payload += int64(ent.size)
		msgs = append(msgs, buf)
	}
	r.inflightRecv--
	n := int64(len(ents))
	r.received += n
	r.telReceived.Add(n)
	r.telOccupancy.Set(int64(r.Len()))
	r.telQueue.DepartN(p, n)
	if batch {
		r.telBatchOut.ObserveAt(p, sim.Time(n))
		sp.TagInt("count", n)
	}
	sp.TagInt("bytes", payload)
	sp.End(p)
	if batch {
		p.Broadcast(r.spaceCond)
	} else {
		p.Signal(r.spaceCond)
	}
	return msgs, nil
}

// RecvBatch blocks until at least one element is available, then drains up
// to max ready elements (see TryRecvBatch); ok is false once the ring is
// closed and drained. Elements enqueued before Close remain receivable.
func (pt *Port) RecvBatch(p *sim.Proc, max int) ([][]byte, bool) {
	return pt.RecvBatchInto(p, max, nil)
}

// RecvBatchInto is RecvBatch with a caller-owned destination slice (see
// TryRecvBatchInto); blocks until at least one element is appended, ok is
// false once the ring is closed and drained.
func (pt *Port) RecvBatchInto(p *sim.Proc, max int, dst [][]byte) ([][]byte, bool) {
	return pt.recv(p, max, dst, true)
}

// Recv blocks until an element is available and returns its payload; ok is
// false once the ring is closed and drained.
func (pt *Port) Recv(p *sim.Proc) ([]byte, bool) {
	var one [1][]byte
	msgs, ok := pt.recv(p, 1, one[:0], false)
	if !ok {
		return nil, false
	}
	return msgs[0], true
}

// recv is the blocking form of dequeue: it waits for data until at least
// one element is appended to dst, or the ring is closed and drained.
func (pt *Port) recv(p *sim.Proc, max int, dst [][]byte, batch bool) ([][]byte, bool) {
	for {
		msgs, err := pt.dequeue(p, max, dst, batch)
		if err == nil {
			return msgs, true
		}
		if pt.ring.closed {
			return dst, false
		}
		p.Wait(pt.ring.dataCond)
	}
}

// Close marks the ring closed and wakes all blocked receivers and senders.
// Pending elements remain receivable.
func (pt *Port) Close(p *sim.Proc) {
	pt.ring.closed = true
	p.Broadcast(pt.ring.dataCond)
	p.Broadcast(pt.ring.spaceCond)
}

// Closed reports whether the ring has been closed.
func (r *Ring) Closed() bool { return r.closed }

// reserve allocates an element; caller holds the enqueue combiner.
func (r *Ring) reserve(size int, need int64) (*entry, bool) {
	if r.tailSlot-r.freeSlot == r.nslots {
		r.reclaim()
		if r.tailSlot-r.freeSlot == r.nslots {
			return nil, false
		}
	}
	pos := r.tailByte % r.capBytes
	waste := int64(0)
	if pos+need > r.capBytes {
		waste = r.capBytes - pos
		pos = 0
	}
	if r.tailByte+waste+need-r.freeByte > r.capBytes {
		r.reclaim()
		pos = r.tailByte % r.capBytes
		waste = 0
		if pos+need > r.capBytes {
			waste = r.capBytes - pos
			pos = 0
		}
		if r.tailByte+waste+need-r.freeByte > r.capBytes {
			return nil, false
		}
	}
	ent := &r.entries[r.tailSlot%r.nslots]
	*ent = entry{size: size, off: pos, alloc: waste + need, state: entReserved}
	r.tailByte += waste + need
	r.tailSlot++
	return ent, true
}

// take claims the head element if ready; caller holds the dequeue combiner.
func (r *Ring) take() (*entry, bool) {
	if r.headSlot == r.tailSlot {
		return nil, false
	}
	ent := &r.entries[r.headSlot%r.nslots]
	if ent.state != entReady {
		return nil, false
	}
	ent.state = entTaken
	r.headSlot++
	return ent, true
}

// reclaim advances the free boundary over contiguous done elements.
func (r *Ring) reclaim() {
	for r.freeSlot < r.headSlot {
		ent := &r.entries[r.freeSlot%r.nslots]
		if ent.state != entDone {
			return
		}
		ent.state = entFree
		r.freeByte += ent.alloc
		r.freeSlot++
	}
}

// Stats reports messages sent/received and payload bytes sent.
func (r *Ring) Stats() (sent, received, sentBytes int64) {
	return r.sent, r.received, r.sentBytes
}

// Cursors reports the ring's slot cursors (free <= head <= tail), for
// oracles and diagnostics.
func (r *Ring) Cursors() (free, head, tail uint64) {
	return r.freeSlot, r.headSlot, r.tailSlot
}

// Check validates the ring's structural invariants. It is safe to call at
// any scheduling point (the sim kernel serializes access) and is the
// transport half of the exploration oracle layer:
//
//   - cursor ordering: free <= head <= tail, at most nslots live;
//   - cursor monotonicity across successive Check calls;
//   - byte accounting: 0 <= tailByte-freeByte <= capBytes;
//   - element lifecycle: every slot in [head,tail) is reserved or ready,
//     every slot in [free,head) is taken or done;
//   - no ready-before-copy visibility: a ready slot's payload copy has
//     completed;
//   - master/shadow agreement at quiesce: when neither combiner is held
//     and no copy is in flight, sent == received + Len().
func (r *Ring) Check() error {
	free, head, tail := r.freeSlot, r.headSlot, r.tailSlot
	if free > head || head > tail {
		return fmt.Errorf("transport: cursor order violated: free=%d head=%d tail=%d", free, head, tail)
	}
	if tail-free > r.nslots {
		return fmt.Errorf("transport: %d live slots exceed capacity %d", tail-free, r.nslots)
	}
	if free < r.lastFree || head < r.lastHead || tail < r.lastTail {
		return fmt.Errorf("transport: cursor moved backwards: free %d->%d head %d->%d tail %d->%d",
			r.lastFree, free, r.lastHead, head, r.lastTail, tail)
	}
	r.lastFree, r.lastHead, r.lastTail = free, head, tail
	if used := r.tailByte - r.freeByte; used < 0 || used > r.capBytes {
		return fmt.Errorf("transport: byte accounting broken: tailByte=%d freeByte=%d cap=%d",
			r.tailByte, r.freeByte, r.capBytes)
	}
	for s := head; s < tail; s++ {
		ent := &r.entries[s%r.nslots]
		if ent.state == entReady && !ent.copied {
			return fmt.Errorf("transport: slot %d published ready before copy completed", s)
		}
		if ent.state != entReserved && ent.state != entReady {
			return fmt.Errorf("transport: undequeued slot %d in state %d", s, ent.state)
		}
	}
	for s := free; s < head; s++ {
		ent := &r.entries[s%r.nslots]
		if ent.state != entTaken && ent.state != entDone {
			return fmt.Errorf("transport: dequeued slot %d in state %d", s, ent.state)
		}
	}
	if !r.enq.lock.Held() && !r.deq.lock.Held() && r.inflightSend == 0 && r.inflightRecv == 0 {
		if r.sent != r.received+int64(r.Len()) {
			return fmt.Errorf("transport: master/shadow disagree at quiesce: sent=%d received=%d len=%d",
				r.sent, r.received, r.Len())
		}
	}
	return nil
}

// Len reports elements enqueued but not yet dequeued.
func (r *Ring) Len() int { return int(r.tailSlot - r.headSlot) }
