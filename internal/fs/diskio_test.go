package fs

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"solros/internal/block"
	"solros/internal/nvme"
	"solros/internal/pcie"
	"solros/internal/sim"
)

// parkCounter wraps a block device and records how many IO vectors were
// inside it at once, i.e. parked in the NVMe model's Submit, and how many
// vectors some other I/O rewrote while they were parked.
type parkCounter struct {
	block.Device
	inflight, peak, clobbered int
}

func (c *parkCounter) Vector(p *sim.Proc, ops []block.Op, coalesce bool) error {
	snap := slices.Clone(ops)
	c.inflight++
	c.peak = max(c.peak, c.inflight)
	err := c.Device.Vector(p, ops, coalesce)
	c.inflight--
	if !slices.Equal(snap, ops) {
		c.clobbered++
	}
	return err
}

// withNVMeFS mounts a fresh solrosfs on the timed NVMe model (every data
// I/O parks its proc in Submit), seen through pc unless it is nil, and runs
// fn inside a sim Proc.
func withNVMeFS(t *testing.T, pc *parkCounter, fn func(p *sim.Proc, fsys *FS, phi *pcie.Device)) {
	t.Helper()
	fab := pcie.New(256 << 20)
	phi := fab.AddPhi("phi0", 0, 64<<20)
	ssd := nvme.New(fab, "nvme0", 0, 64<<20)
	if err := Mkfs(ssd.Image(), 0); err != nil {
		t.Fatal(err)
	}
	var disk block.Device = block.NVMe{Dev: ssd}
	if pc != nil {
		pc.Device = disk
		disk = pc
	}
	e := sim.NewEngine()
	e.Spawn("test", 0, func(p *sim.Proc) {
		fsys, err := Mount(p, fab, disk)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, fsys, phi)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIOOwnVectors runs procs that interleave peer-to-peer
// (ReadTo/WriteFrom into co-processor memory) and buffered (Read/Write
// through host staging) I/O on their own files. Every proc parks inside
// Submit while the others build and submit their vectors, and each must
// still read back exactly its own bytes: no scratch vector is shared.
func TestConcurrentIOOwnVectors(t *testing.T) {
	const procs, rounds, chunk = 6, 4, 64 << 10
	disk := &parkCounter{}
	withNVMeFS(t, disk, func(p *sim.Proc, fsys *FS, phi *pcie.Device) {
		pattern := func(i, k int) []byte {
			b := make([]byte, chunk)
			for j := range b {
				b[j] = byte(i*37 + k*11 + j)
			}
			return b
		}
		wg := sim.NewWaitGroup("io")
		wg.Add(procs)
		for i := 0; i < procs; i++ {
			p.Spawn(fmt.Sprintf("io-%d", i), func(wp *sim.Proc) {
				defer wp.DoneWG(wg)
				f, err := fsys.Create(wp, fmt.Sprintf("/f%d", i))
				if err != nil {
					t.Error(err)
					return
				}
				// This proc's window of co-processor memory.
				win := pcie.Loc{Dev: phi, Off: phi.Mem.Alloc(chunk)}
				mem := phi.Mem.Slice(win.Off, chunk)
				for k := 0; k < rounds; k++ {
					off := int64(k) * chunk
					want := pattern(i, k)
					p2p := (i+k)%2 == 0
					if p2p {
						copy(mem, want)
						err = f.WriteFrom(wp, off, chunk, win, true)
					} else {
						_, err = f.Write(wp, off, want)
					}
					if err != nil {
						t.Errorf("proc %d round %d write: %v", i, k, err)
						return
					}
					got := make([]byte, chunk)
					if p2p {
						clear(mem)
						err = f.ReadTo(wp, off, chunk, win, true)
						copy(got, mem)
					} else {
						_, err = f.Read(wp, off, got)
					}
					if err != nil {
						t.Errorf("proc %d round %d read: %v", i, k, err)
						return
					}
					if !bytes.Equal(got, want) {
						t.Errorf("proc %d round %d (p2p=%v) read back another I/O's bytes", i, k, p2p)
					}
				}
			})
		}
		p.WaitWG(wg)
		if disk.peak < procs {
			t.Errorf("at most %d vectors were in flight at once, want %d", disk.peak, procs)
		}
		if disk.clobbered > 0 {
			t.Errorf("%d op vectors were rewritten while their I/O was parked", disk.clobbered)
		}
	})
}

// TestDiskIOAllocFree pins the storage leg's heap budget: a steady-state
// peer-to-peer read builds its op vector in the FS's free list and its
// command vector on the stack, so it allocates nothing.
func TestDiskIOAllocFree(t *testing.T) {
	// The slack and the best-of-three windows absorb the runtime's own
	// occasional allocations; a per-read allocation lands in every window.
	const iters, slack, windows = 500, 8, 3
	mallocs := uint64(math.MaxUint64)
	withNVMeFS(t, nil, func(p *sim.Proc, fsys *FS, phi *pcie.Device) {
		f, err := fsys.Create(p, "/f")
		if err == nil {
			err = f.Truncate(p, 1<<20)
		}
		if err != nil {
			t.Error(err)
			return
		}
		dst := pcie.Loc{Dev: phi, Off: phi.Mem.Alloc(64 << 10)}
		read := func() {
			if err := f.ReadTo(p, 128<<10, 64<<10, dst, true); err != nil {
				t.Error(err)
			}
		}
		read() // fill the free list
		for w := 0; w < windows && mallocs > slack; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < iters; i++ {
				read()
			}
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
	})
	if mallocs > slack {
		t.Fatalf("p2p ReadTo: %d mallocs in the best of %d windows of %d reads, want 0 (+%d slack)",
			mallocs, windows, iters, slack)
	}
}
