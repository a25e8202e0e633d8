package main

import (
	"bytes"
	"fmt"
	"hash"
	"time"

	"solros/internal/core"
	"solros/internal/dataplane"
	"solros/internal/ninep"
	"solros/internal/sim"
	"solros/internal/workload"
)

// fsInputs are the generated inputs of a file-system workload: the bytes the
// files hold and the offsets the callers visit, segment after segment.
type fsInputs struct {
	corpus  []byte
	offsets []int64
}

func (in *fsInputs) checksum(h hash.Hash64) {
	h.Write(in.corpus)
	for _, o := range in.offsets {
		addUint64(h, uint64(o))
	}
}

// seedFile creates path through the host file system and fills it with data.
func seedFile(r *rep, p *sim.Proc, m *core.Machine, path string, data []byte) {
	mk := r.tr.start(p)
	f, err := m.FS.Create(p, path)
	if err != nil {
		panic(err)
	}
	const chunk = 1 << 20
	for off := 0; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		if _, err := f.Write(p, int64(off), data[off:end]); err != nil {
			panic(err)
		}
	}
	if err := m.FS.Sync(p); err != nil {
		panic(err)
	}
	r.tr.finish(p, "seed_file", -1, mk)
}

func mustOpen(r *rep, p *sim.Proc, c *dataplane.FSClient, path string, flags uint32) dataplane.Fd {
	mk := r.tr.start(p)
	fd, err := c.Open(p, path, flags)
	if err != nil {
		panic(err)
	}
	r.tr.finish(p, "fs_open", -1, mk)
	return fd
}

// readLoop is the closed loop of the two read workloads: callers procs per
// phi, each issuing its share of the offsets one read at a time and checking
// every buffer against the corpus.
func readLoop(r *rep, p *sim.Proc, m *core.Machine, fds []dataplane.Fd, callers int, bs int64) {
	in := r.in.(*fsInputs)
	n := len(m.Phis) * callers
	per := r.ops / n
	core.Parallel(p, n, "caller", func(i int, wp *sim.Proc) {
		phi := m.Phis[i%len(m.Phis)]
		fd := fds[i%len(m.Phis)]
		buf := phi.FS.AllocBuffer(bs)
		for k := 0; k < per; k++ {
			op := i*per + k
			off := in.offsets[r.seg*r.ops+op]
			mk := r.tr.start(wp)
			start := wp.Now()
			got, err := phi.FS.Read(wp, fd, off, buf, bs)
			r.lat[op] = wp.Now() - start
			r.tr.finish(wp, "fs_read", op, mk)
			v := time.Now()
			switch {
			case err != nil:
				r.fail("read at %d: %v", off, err)
			case got != bs || !bytes.Equal(buf.Data[:bs], in.corpus[off:off+bs]):
				r.fail("read at %d: %d bytes, wrong data", off, got)
			}
			r.verify += time.Since(v)
		}
	})
}

// --- fs_randread -------------------------------------------------------------

const (
	randreadFile  = 64 << 20
	randreadBlock = 64 << 10
)

func prepareRandread(seed int64, ops, n int, quick bool) any {
	size := int64(randreadFile)
	if quick {
		size /= 8 // keep input generation in proportion
	}
	return &fsInputs{
		corpus:  workload.Corpus(seed, int(size)),
		offsets: workload.Offsets(seed+1, size, randreadBlock, n*ops),
	}
}

// fsRandread: one caller at queue depth 1 doing 64 KB random reads on a fd
// opened without OBuffer, so every read is a peer-to-peer NVMe-to-phi DMA
// and the shared cache is bypassed.
func fsRandread(r *rep, p *sim.Proc, m *core.Machine) {
	in := r.in.(*fsInputs)
	seedFile(r, p, m, "/data", in.corpus)
	fd := mustOpen(r, p, m.Phis[0].FS, "/data", 0)

	r.begin(p, m)
	readLoop(r, p, m, []dataplane.Fd{fd}, 1, randreadBlock)
	r.end(p, m)

	if r.d[cPathP2P] != int64(r.ops) || r.d[cPathBuffered]+r.d[cPathCacheHit] != 0 {
		r.problem("fs_randread left the peer-to-peer path: p2p %d buffered %d cache-hit %d of %d ops",
			r.d[cPathP2P], r.d[cPathBuffered], r.d[cPathCacheHit], r.ops)
	}
	if err := m.Phis[0].FS.Close(p, fd); err != nil {
		r.problem("close: %v", err)
	}
}

// --- fs_hot ------------------------------------------------------------------

const (
	hotFile    = 8 << 20
	hotBlock   = 4 << 10
	hotCallers = 4
)

func prepareHot(seed int64, ops, n int, _ bool) any {
	return &fsInputs{
		corpus:  workload.Corpus(seed, hotFile),
		offsets: workload.Offsets(seed+1, hotFile, hotBlock, n*ops),
	}
}

// fsHot: 4 phis x 4 callers doing 4 KB reads on OBuffer fds of one shared
// file that already sits in the shared cache, so the delegated RPC path does
// all the work and the NVMe none.
func fsHot(r *rep, p *sim.Proc, m *core.Machine) {
	in := r.in.(*fsInputs)
	seedFile(r, p, m, "/hot", in.corpus)
	fds := make([]dataplane.Fd, len(m.Phis))
	for i, phi := range m.Phis {
		fds[i] = mustOpen(r, p, phi.FS, "/hot", ninep.OBuffer)
	}
	// Warm the cache: one pass over the file through the buffered path.
	mk := r.tr.start(p)
	warm := m.Phis[0].FS.AllocBuffer(1 << 20)
	for off := int64(0); off < hotFile; off += 1 << 20 {
		if _, err := m.Phis[0].FS.Read(p, fds[0], off, warm, 1<<20); err != nil {
			panic(err)
		}
	}
	r.tr.finish(p, "cache_warm", -1, mk)

	r.begin(p, m)
	readLoop(r, p, m, fds, hotCallers, hotBlock)
	r.end(p, m)

	if r.d[cNVMeCmds] > 8 {
		r.problem("fs_hot issued %d NVMe commands in the timed region, want <= 8", r.d[cNVMeCmds])
	}
	if share := float64(r.d[cPathCacheHit]) / float64(r.ops); share < 0.99 {
		r.problem("fs_hot cache-hit path share %.4f, want >= 0.99", share)
	}
	for i, phi := range m.Phis {
		if err := phi.FS.Close(p, fds[i]); err != nil {
			r.problem("close: %v", err)
		}
	}
}

// --- fs_write ----------------------------------------------------------------

const (
	writeBlock     = 64 << 10
	writePerFile   = 128
	writeSyncEvery = 16
	writeCallers   = 2
)

func prepareWrite(seed int64, _, _ int, _ bool) any {
	// Appends take their payload from a sliding window over the corpus, so
	// neighbouring blocks differ and a misplaced block is caught.
	return &fsInputs{corpus: workload.Corpus(seed, writeBlock+writePerFile*4096)}
}

func writePayload(in *fsInputs, k int) []byte {
	off := (k % writePerFile) * 4096
	return in.corpus[off : off+writeBlock]
}

// fsWrite: 1 phi x 2 callers; each cycles create, 128 x 64 KB appends with a
// Sync after every 16th, close, unlink. Latency is per append, the sync
// counted into the append it follows. The last file of each caller stays
// open past the timed region, where it is read back, checked and unlinked.
func fsWrite(r *rep, p *sim.Proc, m *core.Machine) {
	in := r.in.(*fsInputs)
	phi := m.Phis[0]
	per := r.ops / writeCallers
	type openFile struct {
		fd   dataplane.Fd
		path string
		buf  dataplane.Buffer
	}
	last := make([]openFile, writeCallers)

	r.begin(p, m)
	core.Parallel(p, writeCallers, "caller", func(i int, wp *sim.Proc) {
		f := openFile{buf: phi.FS.AllocBuffer(writeBlock)}
		for k := 0; k < per; k++ {
			op := i*per + k
			slot := k % writePerFile
			if slot == 0 {
				f.path = fmt.Sprintf("/w%d-%d", i, k/writePerFile)
				mk := r.tr.start(wp)
				fd, err := phi.FS.Open(wp, f.path, ninep.OCreate)
				r.tr.finish(wp, "fs_open", op, mk)
				if err != nil {
					panic(err)
				}
				f.fd = fd
			}
			copy(f.buf.Data, writePayload(in, k))
			mk := r.tr.start(wp)
			start := wp.Now()
			got, err := phi.FS.Write(wp, f.fd, int64(slot)*writeBlock, f.buf, writeBlock)
			r.tr.finish(wp, "fs_write", op, mk)
			if err != nil || got != writeBlock {
				r.fail("append %d to %s: %d bytes, %v", slot, f.path, got, err)
			}
			if (slot+1)%writeSyncEvery == 0 {
				mk := r.tr.start(wp)
				if err := phi.FS.Sync(wp); err != nil {
					r.fail("sync %s: %v", f.path, err)
				}
				r.tr.finish(wp, "fs_sync", op, mk)
			}
			r.lat[op] = wp.Now() - start
			if slot == writePerFile-1 && k != per-1 {
				if err := phi.FS.Close(wp, f.fd); err != nil {
					r.fail("close %s: %v", f.path, err)
				}
				mk := r.tr.start(wp)
				if err := phi.FS.Unlink(wp, f.path); err != nil {
					r.fail("unlink %s: %v", f.path, err)
				}
				r.tr.finish(wp, "fs_unlink", op, mk)
			}
		}
		last[i] = f
	})
	r.end(p, m)

	for _, f := range last {
		blocks := (per-1)%writePerFile + 1
		for s := 0; s < blocks; s++ {
			n, err := phi.FS.Read(p, f.fd, int64(s)*writeBlock, f.buf, writeBlock)
			if err != nil || n != writeBlock || !bytes.Equal(f.buf.Data, writePayload(in, per-blocks+s)) {
				r.problem("read back %s block %d: %d bytes, %v", f.path, s, n, err)
			}
		}
		if err := phi.FS.Close(p, f.fd); err != nil {
			r.problem("close %s: %v", f.path, err)
		}
		if err := phi.FS.Unlink(p, f.path); err != nil {
			r.problem("unlink %s: %v", f.path, err)
		}
	}
}
