// Package controlplane implements the host side of Solros: the
// file-system proxy with its data-path policy (peer-to-peer vs. buffered,
// §4.3.2), the shared host-side buffer cache, and — in tcpproxy.go — the
// network proxy with the shared listening socket and pluggable load
// balancing (§4.4).
package controlplane

import (
	"errors"
	"fmt"
	"strings"

	"solros/internal/cache"
	"solros/internal/cpu"
	"solros/internal/fs"
	"solros/internal/model"
	"solros/internal/ninep"
	"solros/internal/nvme"
	"solros/internal/pcie"
	"solros/internal/sim"
	"solros/internal/telemetry"
	"solros/internal/transport"
)

// DataPath labels which mode served a transfer, for stats and tests.
type DataPath int

const (
	// PathP2P is a direct disk <-> co-processor DMA.
	PathP2P DataPath = iota
	// PathBuffered stages through the host buffer cache.
	PathBuffered
	// PathCacheHit served entirely from the cache.
	PathCacheHit
)

// FSProxy is the control-plane file-system service: it pulls RPCs from
// every co-processor's request ring, executes them against the host file
// system, and picks the data path using system-wide knowledge (PCIe
// topology, cache residency, open flags).
type FSProxy struct {
	FS    *fs.FS
	SSD   *nvme.Device
	Cache *cache.Cache

	fabric *pcie.Fabric
	// Coalesce enables the optimized IO-vector driver (§5); disabling it
	// is the ablation that shows why Solros can beat the host (Fig 1a).
	Coalesce bool
	// ForceP2P disables the topology check (ablation for the cross-NUMA
	// series in Fig 1a).
	ForceP2P bool
	// DisableCache bypasses the shared buffer cache (ablation).
	DisableCache bool

	// AutoPrefetch watches file popularity: once a file has been read
	// by more than one co-processor, the proxy pulls it into the shared
	// cache in the background so later readers hit host memory (§4.3:
	// the control plane "prefetches frequently accessed files from
	// multiple co-processors"). Enabled by default.
	AutoPrefetch bool

	// BatchRecv drains each request ring with RecvBatch, amortizing
	// combiner and PCIe costs when requests arrive back to back
	// (pipelined chunk windows). Default off.
	BatchRecv bool
	// Overlap double-buffers buffered reads: missing pages are filled
	// from the flash by parallel worker procs while already-filled pages
	// stream to the co-processor, so the NVMe leg of chunk k+1 proceeds
	// under the PCIe leg of chunk k. Default off.
	Overlap bool

	// RetryIO arms degraded-mode recovery: transient nvme.ErrMedia
	// failures on disk legs are retried up to RetryIO times with
	// exponential backoff, and a failed peer-to-peer DMA falls back to
	// the buffered path instead of surfacing the error. Zero (the
	// default) propagates every error unchanged, the paper's behavior —
	// and what TestMediaErrorPropagatesToApplication pins down.
	RetryIO int
	// RetryBackoff is the first retry delay (default 50 us), doubling
	// per attempt.
	RetryBackoff sim.Time

	// Shards partitions the serve plane into that many per-NUMA-domain
	// shards (§6.3 scale-out): per-channel reader procs feed per-shard
	// executor pools, the serialized slice of each request queues on the
	// owning shard's lock, and pending-fill state shards by page hash.
	// Zero (the default) keeps the legacy per-channel serve loops with
	// global tables and unchanged virtual-time charges.
	Shards int
	// ShardFids gives each shard a private fid table. With Shards set but
	// ShardFids off, fid-touching requests additionally serialize on one
	// global fid-table lock — the ablation showing that sharding the
	// tables matters, not just the serve loops.
	ShardFids bool

	channels []*channel
	workers  int
	shards   []*fsShard
	fidLock  *sim.Resource
	opens    map[uint32]*openFile
	readers  map[uint32]map[*pcie.Device]bool // ino -> co-processors that read it
	fetching map[uint32]bool

	// pendingFill marks cache pages that have a frame inserted but whose
	// disk fill has not yet landed (overlap fills, readahead).
	// pushFromCache waits on fillCond for them, and fullyCached treats
	// them as absent. Empty whenever Overlap and readahead are idle, so
	// the default paths never observe it.
	pendingFill map[pageKey]bool
	fillCond    *sim.Cond

	// stats
	p2pOps, bufferedOps, cacheHitOps, prefetches int64
	ioRetries, fallbacks, reattaches             int64

	tel         *telemetry.Sink
	telP2P      *telemetry.Counter
	telBuffered *telemetry.Counter
	telCacheHit *telemetry.Counter
	telPrefetch *telemetry.Counter
	telIORetry  *telemetry.Counter
	telFallback *telemetry.Counter
	telReattach *telemetry.Counter
	telInflight *telemetry.Queue
	telPending  *telemetry.Queue
}

type channel struct {
	idx   int // position in px.channels, fixed at Attach
	phi   *pcie.Device
	req   *transport.Port
	resp  *transport.Port
	shard *fsShard // owning shard; nil in the legacy unsharded layout
}

// pageKey names one cache page for fill coordination.
type pageKey struct {
	ino uint32
	blk int64
}

type openFile struct {
	f     *fs.File
	phi   *pcie.Device
	flags uint32
	path  string
}

// NewFSProxy builds a proxy over a mounted file system and SSD.
func NewFSProxy(fab *pcie.Fabric, fsys *fs.FS, ssd *nvme.Device, cacheBytes int64) *FSProxy {
	px := &FSProxy{
		FS:           fsys,
		SSD:          ssd,
		Cache:        cache.New(fab, cacheBytes),
		fabric:       fab,
		Coalesce:     true,
		AutoPrefetch: true,
		opens:        make(map[uint32]*openFile),
		readers:      make(map[uint32]map[*pcie.Device]bool),
		fetching:     make(map[uint32]bool),
		pendingFill:  make(map[pageKey]bool),
		fillCond:     sim.NewCond("fsproxy-fill"),
	}
	if tel := fab.Telemetry(); tel != nil {
		px.tel = tel
		px.telP2P = tel.Counter("controlplane.fsproxy.path.p2p")
		px.telBuffered = tel.Counter("controlplane.fsproxy.path.buffered")
		px.telCacheHit = tel.Counter("controlplane.fsproxy.path.cachehit")
		px.telPrefetch = tel.Counter("controlplane.fsproxy.prefetches")
		px.telIORetry = tel.Counter("controlplane.fsproxy.io_retries")
		px.telFallback = tel.Counter("controlplane.fsproxy.p2p_fallbacks")
		px.telReattach = tel.Counter("controlplane.fsproxy.reattaches")
		px.telInflight = tel.Queue("controlplane.fsproxy.inflight")
		px.telPending = tel.Queue("controlplane.fsproxy.pending_fill")
	}
	return px
}

// Attach registers a co-processor's RPC ring pair (proxy-side ports).
func (px *FSProxy) Attach(phi *pcie.Device, req, resp *transport.Port) {
	px.channels = append(px.channels, &channel{idx: len(px.channels), phi: phi, req: req, resp: resp})
}

// Start spawns workers proxy procs per attached co-processor channel.
// Each worker pulls requests and serves them; workers exit when the
// request ring closes. With Shards set the layout changes: channels get
// reader procs and shards get executor pools of the same worker count.
func (px *FSProxy) Start(p *sim.Proc, workers int) {
	if workers < 1 {
		workers = 1
	}
	px.workers = workers
	if px.Shards > 0 {
		px.assignShards()
	}
	for _, ch := range px.channels {
		px.startChannel(p, ch)
	}
}

// startChannel spawns the worker procs for one channel incarnation.
func (px *FSProxy) startChannel(p *sim.Proc, ch *channel) {
	// Pool the request ring's receive buffers: workers recycle each raw
	// request after decoding it, so steady-state serving stops allocating
	// per message. Heap-only — virtual time is unchanged.
	ch.req.EnablePool()
	if ch.shard != nil {
		px.startShardChannel(p, ch)
		return
	}
	for w := 0; w < px.workers; w++ {
		p.Spawn(fmt.Sprintf("fsproxy-%s-%d", ch.phi.Name, w), func(wp *sim.Proc) {
			px.serve(wp, ch)
		})
	}
}

// Reattach replaces channel idx's ring pair after a crash and reset: a
// fresh channel struct takes the slot (same index, so the fid namespace —
// and thus every open file — survives the outage) and new workers start on
// the new rings. Workers of the old incarnation drain their closed rings
// and exit without touching the replacement; sibling channels never notice.
func (px *FSProxy) Reattach(p *sim.Proc, idx int, req, resp *transport.Port) {
	old := px.channels[idx]
	// The replacement keeps its predecessor's shard, so the shard-private
	// fid table (like the fid namespace itself) survives the outage.
	ch := &channel{idx: idx, phi: old.phi, req: req, resp: resp, shard: old.shard}
	px.channels[idx] = ch
	px.reattaches++
	px.telReattach.Add(1)
	px.startChannel(p, ch)
}

// serveRecvBatch caps how many requests one worker drains per pass. Small
// on purpose: a full Options.Batch drain would serialize requests that
// idle sibling workers could otherwise serve concurrently, while a short
// batch still amortizes the combiner pass for back-to-back small ops.
const serveRecvBatch = 8

func (px *FSProxy) serve(p *sim.Proc, ch *channel) {
	// Per-worker reusable storage: the decoded request, the response
	// under construction, and the encode scratch all live for the
	// worker's lifetime, so a steady-state request allocates nothing in
	// the serve loop itself. Safe to share across yields because each
	// worker proc owns its own set.
	single := make([][]byte, 1)
	scratch := make([][]byte, 0, serveRecvBatch)
	var m, out ninep.Msg
	var enc []byte
	for {
		var raws [][]byte
		if px.BatchRecv {
			batch, ok := ch.req.RecvBatchInto(p, serveRecvBatch, scratch[:0])
			if !ok {
				return
			}
			scratch = batch // keep the grown backing for the next drain
			raws = batch
		} else {
			raw, ok := ch.req.Recv(p)
			if !ok {
				return
			}
			single[0] = raw
			raws = single
		}
		for _, raw := range raws {
			if err := ninep.DecodeInto(&m, raw); err != nil {
				panic("fsproxy: corrupt request: " + err.Error())
			}
			// The decode copied everything it keeps; the raw buffer can
			// go straight back to the request ring's pool.
			ch.req.Recycle(raw)
			// Join the request's causal tree via the wire context (zero
			// when the stub isn't tracing — StartCtx then degrades to a
			// plain Start), and echo the context into the response so
			// the stub-side completion joins the same tree.
			sp := px.tel.StartCtx(p, "controlplane.fsproxy",
				telemetry.TraceCtx{Trace: m.Trace, Span: m.Span})
			sp.Tag("type", m.Type.String())
			sp.TagInt("shard", int64(ch.idx))
			px.telInflight.Arrive(p)
			p.Advance(model.FSProxyCost)
			out.Reset()
			px.handle(p, ch, &m, &out)
			out.Tag = m.Tag
			out.Trace, out.Span = m.Trace, m.Span
			enc = out.AppendTo(enc[:0])
			ch.resp.Send(p, enc)
			px.telInflight.Depart(p)
			sp.End(p)
		}
	}
}

// rerrorInto fills out as an Rerror reply.
func rerrorInto(out *ninep.Msg, err error) {
	out.Reset()
	out.Type = ninep.Rerror
	out.Err = err.Error()
}

// fidKey spreads fids across co-processors: each channel has its own fid
// space, namespaced by the channel's Attach-time index.
func (px *FSProxy) fidKey(ch *channel, fid uint32) uint32 {
	return uint32(ch.idx)<<24 | fid
}

// handle executes one request and fills out (already Reset by the caller)
// with the reply. Filling a caller-owned message instead of returning a
// fresh one keeps the per-request reply off the heap; out's payload
// backing (Rreaddir) is amortized across the worker's lifetime.
func (px *FSProxy) handle(p *sim.Proc, ch *channel, m, out *ninep.Msg) {
	switch m.Type {
	case ninep.Topen, ninep.Tcreate:
		// Metadata ops walk directory blocks on the same NVMe the data
		// legs use, so degraded mode retries their transient media errors
		// too (retryIO passes every other error through on first attempt).
		var f *fs.File
		err := px.retryIO(p, func() error {
			var e error
			if m.Type == ninep.Tcreate {
				f, e = px.FS.OpenOrCreate(p, m.Name)
			} else {
				f, e = px.FS.Open(p, m.Name)
			}
			return e
		})
		if err != nil {
			rerrorInto(out, err)
			return
		}
		px.fidTable(ch)[px.fidKey(ch, m.Fid)] = &openFile{f: f, phi: ch.phi, flags: m.Flags, path: m.Name}
		out.Type = ninep.Ropen
		out.Size = f.Size()

	case ninep.Tclose:
		delete(px.fidTable(ch), px.fidKey(ch, m.Fid))
		out.Type = ninep.Rclose

	case ninep.Tread:
		of, ok := px.fidTable(ch)[px.fidKey(ch, m.Fid)]
		if !ok {
			rerrorInto(out, fmt.Errorf("fsproxy: bad fid %d", m.Fid))
			return
		}
		n, err := px.read(p, of, m.Off, m.Count, m.Addr)
		if err != nil {
			rerrorInto(out, err)
			return
		}
		out.Type = ninep.Rread
		out.Count = n

	case ninep.Twrite:
		of, ok := px.fidTable(ch)[px.fidKey(ch, m.Fid)]
		if !ok {
			rerrorInto(out, fmt.Errorf("fsproxy: bad fid %d", m.Fid))
			return
		}
		n, err := px.write(p, of, m.Off, m.Count, m.Addr)
		if err != nil {
			rerrorInto(out, err)
			return
		}
		out.Type = ninep.Rwrite
		out.Count = n

	case ninep.Tstat:
		var st fs.FileInfo
		err := px.retryIO(p, func() error {
			var e error
			st, e = px.FS.Stat(p, m.Name)
			return e
		})
		if err != nil {
			rerrorInto(out, err)
			return
		}
		out.Type = ninep.Rstat
		out.Size = st.Size
		out.Mode = st.Mode

	case ninep.Tunlink:
		var ino uint32
		var freed bool
		err := px.retryIO(p, func() error {
			var e error
			ino, freed, e = px.FS.UnlinkIno(p, m.Name)
			return e
		})
		if err != nil {
			rerrorInto(out, err)
			return
		}
		if freed && !px.DisableCache {
			// The inode (and its blocks) can be reallocated to another
			// file; stale frames keyed by this ino must not survive that.
			px.Cache.Invalidate(ino)
		}
		out.Type = ninep.Runlink

	case ninep.Tmkdir:
		if err := px.retryIO(p, func() error { return px.FS.Mkdir(p, m.Name) }); err != nil {
			rerrorInto(out, err)
			return
		}
		out.Type = ninep.Rmkdir

	case ninep.Treaddir:
		var ents []fs.Dirent
		err := px.retryIO(p, func() error {
			var e error
			ents, e = px.FS.ReadDir(p, m.Name)
			return e
		})
		if err != nil {
			rerrorInto(out, err)
			return
		}
		data := out.Data // Reset kept the backing; reuse it
		for _, d := range ents {
			data = append(data, byte(len(d.Name)))
			data = append(data, d.Name...)
		}
		out.Type = ninep.Rreaddir
		out.Data = data

	case ninep.Ttrunc:
		of, ok := px.fidTable(ch)[px.fidKey(ch, m.Fid)]
		if !ok {
			rerrorInto(out, fmt.Errorf("fsproxy: bad fid %d", m.Fid))
			return
		}
		if err := px.retryIO(p, func() error { return of.f.Truncate(p, m.Size) }); err != nil {
			rerrorInto(out, err)
			return
		}
		px.Cache.Invalidate(of.f.Ino())
		out.Type = ninep.Rtrunc

	case ninep.Trename:
		// Name carries "old\x00new".
		parts := strings.SplitN(m.Name, "\x00", 2)
		if len(parts) != 2 {
			rerrorInto(out, fmt.Errorf("fsproxy: malformed rename %q", m.Name))
			return
		}
		if err := px.retryIO(p, func() error { return px.FS.Rename(p, parts[0], parts[1]) }); err != nil {
			rerrorInto(out, err)
			return
		}
		out.Type = ninep.Rrename

	case ninep.Tlink:
		parts := strings.SplitN(m.Name, "\x00", 2)
		if len(parts) != 2 {
			rerrorInto(out, fmt.Errorf("fsproxy: malformed link %q", m.Name))
			return
		}
		if err := px.retryIO(p, func() error { return px.FS.Link(p, parts[0], parts[1]) }); err != nil {
			rerrorInto(out, err)
			return
		}
		out.Type = ninep.Rlink

	case ninep.Tsync:
		// Metadata flush is a disk leg like any other: in degraded mode a
		// transient media error mid-sync is retried (syncLocked re-writes
		// whatever is still dirty; block writes are idempotent).
		if err := px.retryIO(p, func() error { return px.FS.Sync(p) }); err != nil {
			rerrorInto(out, err)
			return
		}
		out.Type = ninep.Rsync

	case ninep.Treadahead:
		of, ok := px.fidTable(ch)[px.fidKey(ch, m.Fid)]
		if !ok {
			rerrorInto(out, fmt.Errorf("fsproxy: bad fid %d", m.Fid))
			return
		}
		px.readahead(p, of, m.Off, m.Count)
		out.Type = ninep.Rreadahead

	default:
		rerrorInto(out, fmt.Errorf("fsproxy: unhandled message %v", m.Type))
	}
}

// choosePath is the §4.3.2 decision: buffered when the file demands it
// (O_BUFFER), when the topology would throttle P2P (crossing a NUMA
// boundary drops to ~300 MB/s), or when the cache already holds the data;
// peer-to-peer otherwise.
func (px *FSProxy) choosePath(of *openFile, off, n int64, forRead bool) DataPath {
	if !px.DisableCache && forRead && px.fullyCached(of.f.Ino(), off, n) {
		return PathCacheHit
	}
	if of.flags&ninep.OBuffer != 0 {
		return PathBuffered
	}
	if !px.ForceP2P && pcie.CrossNUMA(px.SSD.PCIeDev, of.phi) {
		return PathBuffered
	}
	return PathP2P
}

func (px *FSProxy) fullyCached(ino uint32, off, n int64) bool {
	if n == 0 {
		return false
	}
	for blk := off / cache.PageSize; blk <= (off+n-1)/cache.PageSize; blk++ {
		if _, ok := px.Cache.Lookup(ino, blk); !ok {
			return false
		}
		if px.fillPending(pageKey{ino: ino, blk: blk}) {
			// Frame claimed but the disk fill hasn't landed yet.
			return false
		}
	}
	return true
}

// waitFilled blocks until no fill is pending for page k; a pure map probe
// (never a yield) unless overlap or readahead fills are in flight.
func (px *FSProxy) waitFilled(p *sim.Proc, k pageKey) {
	for px.fillPending(k) {
		p.Wait(px.fillCondFor(k))
	}
}

// claimFill marks page k's frame as claimed-but-unfilled and accounts the
// claim in the pending_fill queue.
func (px *FSProxy) claimFill(p *sim.Proc, k pageKey) {
	px.fillMap(k)[k] = true
	px.telPending.Arrive(p)
}

// clearFill releases page k's fill claim. Idempotent, so error-path sweeps
// that clear a range cannot unbalance the queue accounting.
func (px *FSProxy) clearFill(p *sim.Proc, k pageKey) {
	m := px.fillMap(k)
	if m[k] {
		delete(m, k)
		px.telPending.Depart(p)
	}
}

// retryIO runs one disk leg, retrying transient media errors with
// exponential backoff while degraded mode (RetryIO > 0) is armed.
// Non-media errors, and every error when RetryIO is 0, propagate
// unchanged on the first attempt.
func (px *FSProxy) retryIO(p *sim.Proc, op func() error) error {
	err := op()
	if px.RetryIO == 0 {
		return err
	}
	backoff := px.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * sim.Microsecond
	}
	for att := 0; att < px.RetryIO && errors.Is(err, nvme.ErrMedia); att++ {
		px.ioRetries++
		px.telIORetry.Add(1)
		p.Advance(backoff)
		backoff <<= 1
		err = op()
	}
	return err
}

// read serves Tread: clamp to EOF, choose the path, move the data into
// co-processor memory at addr.
func (px *FSProxy) read(p *sim.Proc, of *openFile, off, n, addr int64) (int64, error) {
	if off >= of.f.Size() {
		return 0, nil
	}
	if off+n > of.f.Size() {
		n = of.f.Size() - off
	}
	if n == 0 {
		return 0, nil
	}
	px.notePopularity(p, of)
	dst := pcie.Loc{Dev: of.phi, Off: addr}
	switch px.choosePath(of, off, n, true) {
	case PathP2P:
		px.p2pOps++
		px.telP2P.Add(1)
		// Zero-copy: translate extents (fiemap) and let the SSD's DMA
		// engine write straight into co-processor memory. Block-align
		// the disk I/O while landing the requested window at addr.
		aOff := off &^ (fs.BlockSize - 1)
		head := off - aOff
		span := (head + n + fs.BlockSize - 1) &^ (fs.BlockSize - 1)
		if lim := px.alignedLimit(of.f); aOff+span > lim {
			span = lim - aOff
		}
		err := px.retryIO(p, func() error {
			return of.f.ReadTo(p, aOff, span, pcie.Loc{Dev: of.phi, Off: addr - head}, px.Coalesce)
		})
		if err == nil {
			return n, nil
		}
		if px.RetryIO == 0 {
			return 0, err
		}
		// Degrade: the direct DMA keeps failing, so serve this request
		// through the host buffer cache instead of surfacing the error.
		px.fallbacks++
		px.telFallback.Add(1)
		px.bufferedOps++
		px.telBuffered.Add(1)
		return n, px.bufferedRead(p, of, off, n, dst)
	case PathCacheHit:
		px.cacheHitOps++
		px.telCacheHit.Add(1)
		return n, px.pushFromCache(p, of, off, n, dst)
	default:
		px.bufferedOps++
		px.telBuffered.Add(1)
		return n, px.bufferedRead(p, of, off, n, dst)
	}
}

func (px *FSProxy) alignedLimit(f *fs.File) int64 {
	return (f.Size() + fs.BlockSize - 1) &^ (fs.BlockSize - 1)
}

// bufferedRead fills cache pages from disk as needed, then DMA-pushes them
// to the co-processor with host-initiated transfers. With Overlap set the
// two legs run concurrently (bufferedReadOverlap); otherwise fill strictly
// precedes push.
func (px *FSProxy) bufferedRead(p *sim.Proc, of *openFile, off, n int64, dst pcie.Loc) error {
	if px.Overlap && !px.DisableCache {
		return px.bufferedReadOverlap(p, of, off, n, dst)
	}
	ino := of.f.Ino()
	first := off / cache.PageSize
	last := (off + n - 1) / cache.PageSize
	limit := px.alignedLimit(of.f)

	// Fill missing pages: batch contiguous misses into one disk vector.
	// Each inserted frame is marked pendingFill until its disk read lands,
	// so a concurrent worker's fullyCached/pushFromCache cannot serve the
	// unfilled frame as a cache hit.
	var missLocs []pcie.Loc
	var missStart int64 = -1
	flush := func(endBlk int64) error {
		if missStart < 0 {
			return nil
		}
		// Pages are scattered frames; issue one op per frame but let
		// the driver coalesce doorbells/interrupts across the vector.
		for i, loc := range missLocs {
			sz := int64(cache.PageSize)
			pOff := (missStart + int64(i)) * cache.PageSize
			if pOff+sz > limit {
				sz = limit - pOff
			}
			var err error
			if sz > 0 {
				err = px.retryIO(p, func() error {
					return of.f.ReadTo(p, pOff, sz, loc, px.Coalesce)
				})
			}
			if err != nil || sz <= 0 {
				// The remaining frames hold garbage; drop them (and their
				// claims) so a retry of the whole request refills them
				// instead of serving junk, and no waiter wedges.
				for j := i; j < len(missLocs); j++ {
					blk := missStart + int64(j)
					px.Cache.InvalidateRange(ino, blk*cache.PageSize, cache.PageSize)
					px.clearFill(p, pageKey{ino: ino, blk: blk})
				}
				px.broadcastFills(p)
				missLocs = missLocs[:0]
				missStart = -1
				return err
			}
			filled := pageKey{ino: ino, blk: missStart + int64(i)}
			px.clearFill(p, filled)
			p.Broadcast(px.fillCondFor(filled))
		}
		missLocs = missLocs[:0]
		missStart = -1
		return nil
	}
	for blk := first; blk <= last; blk++ {
		if px.DisableCache {
			break
		}
		if _, ok := px.Cache.Lookup(ino, blk); ok {
			if err := flush(blk); err != nil {
				return err
			}
			continue
		}
		if missStart < 0 {
			missStart = blk
		} else if missStart+int64(len(missLocs)) != blk {
			if err := flush(blk); err != nil {
				return err
			}
			missStart = blk
		}
		px.claimFill(p, pageKey{ino: ino, blk: blk})
		missLocs = append(missLocs, px.Cache.InsertAt(p, ino, blk))
	}
	if err := flush(last + 1); err != nil {
		return err
	}
	if px.DisableCache {
		// Stage through scratch host memory instead of the cache.
		loc, _, put := px.FS.Staging(n)
		defer put()
		aOff := off &^ (cache.PageSize - 1)
		span := ((off + n + cache.PageSize - 1) &^ (cache.PageSize - 1)) - aOff
		if aOff+span > limit {
			span = limit - aOff
		}
		err := px.retryIO(p, func() error {
			return of.f.ReadTo(p, aOff, span, loc, px.Coalesce)
		})
		if err != nil {
			return err
		}
		return px.pushHostToPhi(p, pcie.Loc{Off: loc.Off + (off - aOff)}, dst, n)
	}
	return px.pushFromCache(p, of, off, n, dst)
}

// pushFromCache copies [off, off+n) from resident cache pages to the
// co-processor. The pages are scattered host frames, so the proxy builds
// DMA descriptor chains: one channel setup per model.DMAChainBytes of
// traffic, all pages in a chain streaming back to back. A page another
// proc is still filling (overlap, readahead) is waited for right before
// it joins a chain, so everything already filled streams immediately —
// that per-page handoff is what overlaps the NVMe and PCIe legs.
func (px *FSProxy) pushFromCache(p *sim.Proc, of *openFile, off, n int64, dst pcie.Loc) error {
	sp := px.tel.Start(p, "controlplane.fsproxy.push")
	sp.TagInt("bytes", n)
	defer sp.End(p)
	ino := of.f.Ino()
	dstMem := px.fabric.Mem(pcie.Loc{Dev: dst.Dev})
	var chainBytes int64
	var latest sim.Time
	startChain := func() {
		p.Advance(model.DMASetupHost)
		px.fabric.CountTxn(1)
		chainBytes = 0
		latest = 0
	}
	endChain := func() {
		if latest > 0 {
			p.AdvanceTo(latest)
		}
	}
	startChain()
	for done := int64(0); done < n; {
		pos := off + done
		blk := pos / cache.PageSize
		inPage := pos % cache.PageSize
		chunk := cache.PageSize - inPage
		if chunk > n-done {
			chunk = n - done
		}
		px.waitFilled(p, pageKey{ino: ino, blk: blk})
		loc, ok := px.Cache.Lookup(ino, blk)
		if !ok {
			return fmt.Errorf("fsproxy: page %d of inode %d evicted mid-read", blk, ino)
		}
		if chainBytes+chunk > model.DMAChainBytes {
			endChain()
			startChain()
		}
		copy(dstMem.Slice(dst.Off+done, chunk), px.fabric.HostRAM.Slice(loc.Off+inPage, chunk))
		if t := px.fabric.StreamAsync(p, nil, dst.Dev, chunk); t > latest {
			latest = t
		}
		chainBytes += chunk
		done += chunk
	}
	endChain()
	return nil
}

// overlapFillers caps the parallel NVMe fill procs per fill job. Four
// keeps enough commands in flight to hide the per-command doorbell,
// submission latency, and interrupt behind the flash's own service time;
// past that the flash array is the bottleneck.
const overlapFillers = 4

// fillJob tracks one batch of background page fills.
type fillJob struct {
	wg  *sim.WaitGroup
	err error // first fill error, if any
}

// startFill claims the missing cache pages of [off, off+n) of f and
// spawns up to procs parallel filler procs that read them from disk.
// Pages already resident or being filled by another proc are skipped.
// Each page is published (pendingFill cleared + broadcast) the moment its
// disk read lands, so a concurrent pushFromCache streams page k over PCIe
// while page k+1 is still on the flash. On a fill error the filler drops
// its remaining claims (and their garbage frames) so no waiter wedges.
func (px *FSProxy) startFill(p *sim.Proc, f *fs.File, off, n int64, procs int) *fillJob {
	job := &fillJob{wg: sim.NewWaitGroup("fsproxy-fill")}
	limit := px.alignedLimit(f)
	if off+n > limit {
		n = limit - off
	}
	if n <= 0 {
		return job
	}
	ino := f.Ino()
	type fill struct {
		blk   int64
		frame pcie.Loc
	}
	var fills []fill
	for blk := off / cache.PageSize; blk <= (off+n-1)/cache.PageSize; blk++ {
		k := pageKey{ino: ino, blk: blk}
		if px.fillPending(k) {
			continue // another proc is on it; pushFromCache will wait
		}
		if _, ok := px.Cache.Lookup(ino, blk); ok {
			continue
		}
		px.claimFill(p, k)
		fills = append(fills, fill{blk: blk, frame: px.Cache.InsertAt(p, ino, blk)})
	}
	if len(fills) == 0 {
		return job
	}
	if procs > len(fills) {
		procs = len(fills)
	}
	// Deal contiguous strides so each filler issues mostly-sequential
	// disk reads. Fillers run on fresh procs with empty span stacks, so
	// the spawner's trace context is captured here and attached
	// explicitly — the fills stay inside the request's causal tree.
	fillCtx := px.tel.Current(p)
	per := (len(fills) + procs - 1) / procs
	for w := 0; w < procs; w++ {
		lo := w * per
		hi := min(lo+per, len(fills))
		if lo >= hi {
			break
		}
		span := fills[lo:hi]
		job.wg.Add(1)
		p.Spawn(fmt.Sprintf("fsproxy-fill-%d", w), func(fp *sim.Proc) {
			defer fp.DoneWG(job.wg)
			sp := px.tel.StartCtx(fp, "controlplane.fsproxy.fill", fillCtx)
			sp.TagInt("pages", int64(len(span)))
			defer sp.End(fp)
			for i, fl := range span {
				pOff := fl.blk * cache.PageSize
				sz := min(int64(cache.PageSize), limit-pOff)
				err := px.retryIO(fp, func() error {
					return f.ReadTo(fp, pOff, sz, fl.frame, px.Coalesce)
				})
				if err != nil {
					if job.err == nil {
						job.err = err
					}
					for _, rest := range span[i:] {
						px.Cache.InvalidateRange(ino, rest.blk*cache.PageSize, cache.PageSize)
						px.clearFill(fp, pageKey{ino: ino, blk: rest.blk})
					}
					px.broadcastFills(fp)
					return
				}
				filled := pageKey{ino: ino, blk: fl.blk}
				px.clearFill(fp, filled)
				fp.Broadcast(px.fillCondFor(filled))
			}
		})
	}
	return job
}

// bufferedReadOverlap is bufferedRead with the storage and transport legs
// overlapped: parallel fillers pull the missing pages from the flash
// while pushFromCache streams pages to the co-processor as each becomes
// ready, double-buffering at model.DMAChainBytes granularity through the
// chain loop.
func (px *FSProxy) bufferedReadOverlap(p *sim.Proc, of *openFile, off, n int64, dst pcie.Loc) error {
	sp := px.tel.Start(p, "controlplane.fsproxy.read_overlap")
	sp.TagInt("bytes", n)
	defer sp.End(p)
	job := px.startFill(p, of.f, off, n, overlapFillers)
	err := px.pushFromCache(p, of, off, n, dst)
	p.WaitWG(job.wg)
	if job.err != nil {
		return job.err // root cause; the push error is its consequence
	}
	return err
}

// readahead serves a Treadahead hint: warm the cache for [off, off+n) in
// the background and return immediately. Purely advisory — a no-op when
// the cache is off, and fill errors are dropped.
func (px *FSProxy) readahead(p *sim.Proc, of *openFile, off, n int64) {
	if px.DisableCache || n <= 0 || off >= of.f.Size() {
		return
	}
	f := of.f
	raCtx := px.tel.Current(p)
	p.Spawn("fsproxy-readahead", func(rp *sim.Proc) {
		sp := px.tel.StartCtx(rp, "controlplane.fsproxy.readahead", raCtx)
		sp.TagInt("bytes", n)
		job := px.startFill(rp, f, off, n, overlapFillers)
		rp.WaitWG(job.wg)
		sp.End(rp)
	})
}

// pushHostToPhi moves n bytes of host memory to co-processor memory using
// the host's DMA engines with descriptor chaining: one setup per
// model.DMAChainBytes of traffic.
func (px *FSProxy) pushHostToPhi(p *sim.Proc, src, dst pcie.Loc, n int64) error {
	buf := px.fabric.HostRAM.Slice(src.Off, n)
	for chunk := int64(0); chunk < n; chunk += model.DMAChainBytes {
		sz := n - chunk
		if sz > model.DMAChainBytes {
			sz = model.DMAChainBytes
		}
		px.fabric.CopyIn(p, nil, cpu.Host, pcie.Loc{Dev: dst.Dev, Off: dst.Off + chunk}, buf[chunk:chunk+sz], pcie.Adaptive)
	}
	return nil
}

// pullPhiToHost moves n bytes from co-processor memory into host memory.
func (px *FSProxy) pullPhiToHost(p *sim.Proc, src, dst pcie.Loc, n int64) error {
	buf := px.fabric.HostRAM.Slice(dst.Off, n)
	for chunk := int64(0); chunk < n; chunk += model.DMAChainBytes {
		sz := n - chunk
		if sz > model.DMAChainBytes {
			sz = model.DMAChainBytes
		}
		px.fabric.CopyOut(p, nil, cpu.Host, pcie.Loc{Dev: src.Dev, Off: src.Off + chunk}, buf[chunk:chunk+sz], pcie.Adaptive)
	}
	return nil
}

// write serves Twrite.
func (px *FSProxy) write(p *sim.Proc, of *openFile, off, n, addr int64) (int64, error) {
	if n == 0 {
		return 0, nil
	}
	src := pcie.Loc{Dev: of.phi, Off: addr}
	// Written ranges supersede cached pages either way.
	if !px.DisableCache {
		px.Cache.InvalidateRange(of.f.Ino(), off, n)
	}
	switch px.choosePath(of, off, n, false) {
	case PathP2P:
		px.p2pOps++
		px.telP2P.Add(1)
		if off%fs.BlockSize == 0 && n%fs.BlockSize == 0 {
			// Aligned: the disk's DMA engine pulls straight from
			// co-processor memory.
			err := px.retryIO(p, func() error {
				return of.f.WriteFrom(p, off, n, src, px.Coalesce)
			})
			if err == nil {
				return n, nil
			}
			if px.RetryIO == 0 {
				return 0, err
			}
			// Degrade: the direct DMA keeps failing; restage the write
			// through host memory like an unaligned one.
			px.fallbacks++
			px.telFallback.Add(1)
		}
		// Unaligned tail: stage the edges through host memory via the
		// file system's read-modify-write path.
		fallthrough
	default:
		px.bufferedOps++
		px.telBuffered.Add(1)
		loc, buf, put := px.FS.Staging(n)
		defer put()
		if err := px.pullPhiToHost(p, src, loc, n); err != nil {
			return 0, err
		}
		err := px.retryIO(p, func() error {
			_, werr := writeViaStaging(p, of.f, off, buf[:n])
			return werr
		})
		return n, err
	}
}

// writeViaStaging funnels a buffered write through the file's standard
// write path (read-modify-write on unaligned edges).
func writeViaStaging(p *sim.Proc, f *fs.File, off int64, data []byte) (int, error) {
	return f.Write(p, off, data)
}

// notePopularity records which co-processors read a file; when a second
// distinct co-processor shows interest, a background proc prefetches the
// whole file into the shared cache.
func (px *FSProxy) notePopularity(p *sim.Proc, of *openFile) {
	if !px.AutoPrefetch || px.DisableCache {
		return
	}
	ino := of.f.Ino()
	set := px.readers[ino]
	if set == nil {
		set = make(map[*pcie.Device]bool)
		px.readers[ino] = set
	}
	set[of.phi] = true
	if len(set) < 2 || px.fetching[ino] {
		return
	}
	// The file cannot be larger than the cache, or prefetching would
	// just thrash it.
	if of.f.Size() > int64(px.Cache.Capacity())*cache.PageSize/2 {
		return
	}
	px.fetching[ino] = true
	path := of.path
	p.Spawn("fsproxy-prefetch", func(pp *sim.Proc) {
		if err := px.Prefetch(pp, path); err == nil {
			px.prefetches++
			px.telPrefetch.Add(1)
		}
	})
}

// Prefetch loads a whole file into the shared buffer cache (§4.3: the
// proxy "prefetches frequently accessed files from multiple co-processors
// to the host memory").
func (px *FSProxy) Prefetch(p *sim.Proc, path string) error {
	f, err := px.FS.Open(p, path)
	if err != nil {
		return err
	}
	limit := px.alignedLimit(f)
	for pos := int64(0); pos < limit; pos += cache.PageSize {
		blk := pos / cache.PageSize
		k := pageKey{ino: f.Ino(), blk: blk}
		if px.fillPending(k) {
			continue // another proc is filling it
		}
		if _, ok := px.Cache.Lookup(f.Ino(), blk); ok {
			continue
		}
		px.claimFill(p, k)
		loc := px.Cache.InsertAt(p, f.Ino(), blk)
		sz := int64(cache.PageSize)
		if pos+sz > limit {
			sz = limit - pos
		}
		err := px.retryIO(p, func() error {
			return f.ReadTo(p, pos, sz, loc, px.Coalesce)
		})
		px.clearFill(p, k)
		p.Broadcast(px.fillCondFor(k))
		if err != nil {
			px.Cache.InvalidateRange(f.Ino(), pos, cache.PageSize)
			return err
		}
	}
	return nil
}

// CheckCacheCoherence audits every resident cache frame against backing
// storage: a frame's bytes must equal the disk blocks its (ino, blk) maps
// to through the file system's in-memory extent tree. Frames with an
// in-flight claimed fill (pendingFill) are exempt — their bytes are still
// on the flash — as are frames of freed or sparse regions awaiting the
// owner's invalidation in the same handler. This is the cache half of the
// exploration oracle layer; it would have caught a fill publishing its
// frame before the disk read landed, or a write skipping invalidation.
func (px *FSProxy) CheckCacheCoherence() error {
	img := px.SSD.Image()
	var violation error
	px.Cache.ForEach(func(ino uint32, blk int64, loc pcie.Loc) bool {
		if px.fillPending(pageKey{ino: ino, blk: blk}) {
			return true
		}
		extents, _, ok := px.FS.InodeExtents(ino)
		if !ok {
			return true // freed inode; invalidation pending in its handler
		}
		var disk int64 = -1
		for _, e := range extents {
			if blk >= int64(e.Logical) && blk < int64(e.Logical)+int64(e.Count) {
				disk = (int64(e.Start) + blk - int64(e.Logical)) * fs.BlockSize
				break
			}
		}
		if disk < 0 || disk+cache.PageSize > img.Size() {
			return true // sparse or truncated region; not servable anyway
		}
		want := img.Slice(disk, cache.PageSize)
		got := px.fabric.HostRAM.Slice(loc.Off, cache.PageSize)
		for i := range want {
			if got[i] != want[i] {
				violation = fmt.Errorf(
					"fsproxy: cache frame (ino %d, blk %d) diverges from disk block %d at byte %d: %#x != %#x",
					ino, blk, disk/fs.BlockSize, i, got[i], want[i])
				return false
			}
		}
		return true
	})
	return violation
}

// PathStats reports how many operations each data path served.
func (px *FSProxy) PathStats() (p2p, buffered, cacheHit int64) {
	return px.p2pOps, px.bufferedOps, px.cacheHitOps
}

// Prefetches reports completed background prefetches.
func (px *FSProxy) Prefetches() int64 { return px.prefetches }

// RecoveryStats reports degraded-mode activity: transient-I/O retries,
// p2p->buffered fallbacks, and channel reattaches after crashes.
func (px *FSProxy) RecoveryStats() (retries, fallbacks, reattaches int64) {
	return px.ioRetries, px.fallbacks, px.reattaches
}
