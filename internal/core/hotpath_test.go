package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"solros/internal/ninep"
	"solros/internal/sim"
)

// allocSlack is how many mallocs a measured window may contain without any
// per-RPC allocation: runtime.MemStats is process-wide, and the runtime
// allocates now and then (a new OS thread costs a handful). allocWindows
// is how many windows the gate may measure, keeping the smallest count: a
// stray burst rarely lands twice, a per-RPC allocation lands in every one.
const allocSlack, allocWindows = 8, 3

// TestDelegatedReadAllocBudget is the committed end-to-end regression gate
// for the default machine: a steady-state delegated read RPC — stub
// encode, request ring, proxy decode/handle (cache hit), reply ring, stub
// dispatch and wait — must cost at most 2 heap allocations, measured
// across the whole process with runtime.MemStats inside one sim run (every
// proc of the machine runs interleaved in this window, so the count covers
// the full round trip, not just the caller).
func TestDelegatedReadAllocBudget(t *testing.T) {
	m := NewMachine(Config{Phis: 1})
	const iters = 500
	mallocs := uint64(math.MaxUint64)
	m.MustRun(func(p *sim.Proc, m *Machine) {
		c := m.Phis[0].FS
		fd, err := c.Open(p, "/hot", ninep.OCreate|ninep.OBuffer)
		if err != nil {
			t.Error(err)
			return
		}
		buf := c.AllocBuffer(8192)
		payload := bytes.Repeat([]byte{0xA5}, 8192)
		copy(buf.Data, payload)
		if _, err := c.Write(p, fd, 0, buf, 8192); err != nil {
			t.Error(err)
			return
		}
		rbuf := c.AllocBuffer(8192)
		// Warm every lazy path: buffered first read fills the cache (all
		// later reads take PathCacheHit), pools fill, maps settle.
		for i := 0; i < 64; i++ {
			if _, err := c.Read(p, fd, 0, rbuf, 8192); err != nil {
				t.Error(err)
				return
			}
		}
		for w := 0; w < allocWindows && mallocs > 2*iters+allocSlack; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < iters; i++ {
				c.Read(p, fd, 0, rbuf, 8192)
			}
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
		if !bytes.Equal(rbuf.Data[:8192], payload) {
			t.Error("payload corrupted on the hot path")
		}
		c.Close(p, fd)
	})
	if mallocs > 2*iters+allocSlack {
		t.Fatalf("delegated read round-trip: %d mallocs in the best of %d windows of %d RPCs, budget is 2 per RPC (+%d slack)",
			mallocs, allocWindows, iters, allocSlack)
	}
	t.Logf("delegated read round-trip: %d mallocs in %d RPCs", mallocs, iters)
}

// TestHotPathEndToEnd checks data integrity on the pooled delegated path,
// with per-message and batched ring drains: a 1 MB round trip, then
// concurrent readers whose responses share one connection's recycled call
// records. Reusing records must not perturb the schedule either, so a
// repeated run ends at the identical virtual time.
func TestHotPathEndToEnd(t *testing.T) {
	run := func(cfg Config) sim.Time {
		m := NewMachine(cfg)
		m.MustRun(func(p *sim.Proc, m *Machine) {
			c := m.Phis[0].FS
			fd, err := c.Open(p, "/f", ninep.OCreate)
			if err != nil {
				t.Error(err)
				return
			}
			buf := c.AllocBuffer(1 << 20)
			for i := range buf.Data {
				buf.Data[i] = byte(i * 7)
			}
			if n, err := c.Write(p, fd, 0, buf, 1<<20); err != nil || n != 1<<20 {
				t.Errorf("write n=%d err=%v", n, err)
				return
			}
			rbuf := c.AllocBuffer(1 << 20)
			if n, err := c.Read(p, fd, 0, rbuf, 1<<20); err != nil || n != 1<<20 {
				t.Errorf("read n=%d err=%v", n, err)
				return
			}
			if !bytes.Equal(rbuf.Data, buf.Data) {
				t.Error("payload corrupted")
			}
			Parallel(p, 8, "reader", func(i int, wp *sim.Proc) {
				rb := c.AllocBuffer(8 << 10)
				for k := 0; k < 16; k++ {
					off := int64((i*16+k)%128) * (8 << 10)
					n, err := c.Read(wp, fd, off, rb, 8<<10)
					if err != nil || n != 8<<10 {
						t.Errorf("reader %d: n=%d err=%v", i, n, err)
						return
					}
					if !bytes.Equal(rb.Data, buf.Data[off:off+(8<<10)]) {
						t.Errorf("reader %d: chunk at %d corrupt", i, off)
						return
					}
				}
			})
			c.Close(p, fd)
		})
		return m.Engine.Now()
	}
	for _, cfg := range []Config{{Phis: 1}, {Phis: 1, BatchRecv: true}} {
		if first, again := run(cfg), run(cfg); first != again {
			t.Fatalf("BatchRecv=%v: repeated run ended at %v, first at %v", cfg.BatchRecv, again, first)
		}
	}
}
