package pcie

import (
	"solros/internal/cpu"
	"solros/internal/model"
	"solros/internal/sim"
)

// Mech selects a data-transfer mechanism across the PCIe fabric.
type Mech int

const (
	// Adaptive (the zero value, hence the default everywhere) picks
	// Memcpy below the initiator's threshold and DMA above it (§4.2.4:
	// 1 KB on the host, 16 KB on the Phi).
	Adaptive Mech = iota
	// Memcpy uses CPU load/store through a system-mapped window: one
	// PCIe transaction per cacheline.
	Memcpy
	// DMA programs a DMA engine: setup latency then streaming.
	DMA
)

func (m Mech) String() string {
	switch m {
	case Memcpy:
		return "memcpy"
	case DMA:
		return "dma"
	default:
		return "adaptive"
	}
}

// Resolve maps Adaptive to a concrete mechanism for an initiator and size.
func (m Mech) Resolve(initiator cpu.Kind, n int64) Mech {
	if m != Adaptive {
		return m
	}
	threshold := int64(model.AdaptiveThresholdHost)
	if initiator == cpu.Phi {
		threshold = model.AdaptiveThresholdPhi
	}
	if n <= threshold {
		return Memcpy
	}
	return DMA
}

// CopyIn moves len(buf) bytes from a local buffer on `at` (nil = host)
// into remote fabric memory at dst, initiated by a core of kind k on `at`.
func (f *Fabric) CopyIn(p *sim.Proc, at *Device, k cpu.Kind, dst Loc, buf []byte, mech Mech) {
	n := int64(len(buf))
	copy(dst.mem(f).Slice(dst.Off, n), buf)
	f.charge(p, at, k, dst.Dev, n, mech, true)
}

// CopyOut moves n bytes from remote fabric memory at src into a local
// buffer on `at`, initiated by a core of kind k on `at`.
func (f *Fabric) CopyOut(p *sim.Proc, at *Device, k cpu.Kind, src Loc, buf []byte, mech Mech) {
	n := int64(len(buf))
	copy(buf, src.mem(f).Slice(src.Off, n))
	f.charge(p, at, k, src.Dev, n, mech, false)
}

// CopyInVec moves hdr then payload contiguously into remote fabric memory
// at dst — a writev-style two-slice send. The fabric cost is ONE transfer
// of the combined size, exactly what a pre-joined buffer would pay; what
// the caller saves is the heap staging buffer that used to join them.
func (f *Fabric) CopyInVec(p *sim.Proc, at *Device, k cpu.Kind, dst Loc, hdr, payload []byte, mech Mech) {
	n := int64(len(hdr) + len(payload))
	s := dst.mem(f).Slice(dst.Off, n)
	copy(s, hdr)
	copy(s[len(hdr):], payload)
	f.charge(p, at, k, dst.Dev, n, mech, true)
}

// LocalCopy charges a same-domain memory copy on a core of kind k and
// moves the bytes. No PCIe traffic is involved.
func LocalCopy(p *sim.Proc, k cpu.Kind, dst, src []byte) {
	n := int64(len(src))
	copy(dst, src)
	rate := int64(model.LocalCopyRateHost)
	if k == cpu.Phi {
		rate = model.LocalCopyRatePhi
	}
	p.Advance(sim.Time(n * int64(sim.Second) / rate))
}

// charge accounts the fabric cost of moving n bytes between device `a`
// (where the initiating core lives) and device `b` (where the remote
// memory lives); either may be nil for the host.
func (f *Fabric) charge(p *sim.Proc, a *Device, k cpu.Kind, b *Device, n int64, mech Mech, toRemote bool) {
	if a == b {
		// Same memory domain: local copy, no PCIe.
		rate := int64(model.LocalCopyRateHost)
		if k == cpu.Phi {
			rate = model.LocalCopyRatePhi
		}
		p.Advance(sim.Time(n * int64(sim.Second) / rate))
		return
	}
	resolved := mech.Resolve(k, n)
	sp := f.tel.Start(p, "pcie.copy")
	sp.Tag("mech", resolved.String())
	sp.TagInt("bytes", n)
	switch resolved {
	case Memcpy:
		lines := (n + model.CacheLine - 1) / model.CacheLine
		f.txns += lines
		f.telTxns.Add(lines)
		p.Advance(MemcpyTime(k, n))
	default: // DMA
		setup := model.DMASetupHost
		if k == cpu.Phi {
			setup = model.DMASetupPhi
		}
		f.txns++
		f.telTxns.Add(1)
		p.Advance(setup)
		srcDev, dstDev := a, b
		if !toRemote {
			srcDev, dstDev = b, a
		}
		f.streamCharge(p, k, srcDev, dstDev, n)
	}
	sp.End(p)
}

// streamCharge reserves path links without moving bytes (the caller
// already moved them).
func (f *Fabric) streamCharge(p *sim.Proc, initiator cpu.Kind, srcDev, dstDev *Device, n int64) {
	var latest sim.Time
	for _, r := range f.path(srcDev, dstDev) {
		if r == nil {
			break
		}
		rate := f.effectiveRate(r, initiator)
		scaled := n * r.Rate / rate
		done := p.UseAsync(r, scaled)
		if done > latest {
			latest = done
		}
	}
	p.AdvanceTo(latest)
}

// CopyCost predicts the uncontended cost of moving n bytes between a core
// on device a (kind k) and memory on device b.
func (f *Fabric) CopyCost(a *Device, k cpu.Kind, b *Device, n int64, mech Mech) sim.Time {
	if a == b {
		rate := int64(model.LocalCopyRateHost)
		if k == cpu.Phi {
			rate = model.LocalCopyRatePhi
		}
		return sim.Time(n * int64(sim.Second) / rate)
	}
	switch mech.Resolve(k, n) {
	case Memcpy:
		return MemcpyTime(k, n)
	default:
		setup := model.DMASetupHost
		if k == cpu.Phi {
			setup = model.DMASetupPhi
		}
		var worst sim.Time
		for _, r := range f.path(a, b) {
			if r == nil {
				break
			}
			rate := f.effectiveRate(r, k)
			d := r.Latency + sim.Time(n*int64(sim.Second)/rate)
			if d > worst {
				worst = d
			}
		}
		return setup + worst
	}
}

// Alloc reserves n bytes (8-aligned) of the memory region and returns its
// offset; a trivial bump allocator for carving device BARs and host RAM
// into ring buffers, queues, and staging areas.
func (m *Memory) Alloc(n int64) int64 {
	n = (n + 7) &^ 7
	if m.allocCursor+n > int64(len(m.buf)) {
		panic("pcie: out of memory in " + m.name())
	}
	off := m.allocCursor
	m.allocCursor += n
	return off
}

func (m *Memory) name() string {
	if m.Dev == nil {
		return "host RAM"
	}
	return m.Dev.Name
}
