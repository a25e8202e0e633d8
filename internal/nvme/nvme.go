// Package nvme models the paper's storage device (an Intel 750 NVMe SSD)
// and the Solros-optimized driver of §5: IO-vector commands that coalesce
// every NVMe command belonging to one file-system call into a single
// doorbell ring and a single completion interrupt, and peer-to-peer DMA
// whose targets may be co-processor memory reached through system-mapped
// PCIe windows (§4.3.2).
//
// The device's flash address space is its PCIe memory region, so disk
// contents are real bytes: reads and writes move data between the flash
// image and the target memory while charging the flash backend, the PCIe
// links on the path, and doorbell/interrupt costs.
package nvme

import (
	"errors"
	"fmt"

	"solros/internal/model"
	"solros/internal/pcie"
	"solros/internal/sim"
	"solros/internal/telemetry"
)

// SectorSize is the device's logical block size.
const SectorSize = 512

// ErrMedia is the injected unrecoverable-media-error completion status.
var ErrMedia = errors.New("nvme: media error")

// Op distinguishes reads from writes.
type Op int

const (
	// OpRead transfers flash -> target memory.
	OpRead Op = iota
	// OpWrite transfers target memory -> flash.
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// FaultInjector is the device's hook into a fault plan (consumer-side
// interface; implemented by internal/faults). NVMeFault is consulted once
// per Submit: fail completes the vector with ErrMedia before any byte
// moves, and delay is charged ahead of service (a latency spike).
type FaultInjector interface {
	NVMeFault(p *sim.Proc, write bool) (fail bool, delay sim.Time)
}

// Command is one NVMe command: Bytes of data at sector LBA, transferred
// from/to Target (host RAM or a co-processor's system-mapped memory).
type Command struct {
	Op     Op
	LBA    int64 // sector index
	Bytes  int64
	Target pcie.Loc
}

// Device is a simulated NVMe SSD.
type Device struct {
	// PCIeDev is the SSD's endpoint on the fabric; its memory region is
	// the flash image.
	PCIeDev *pcie.Device
	fabric  *pcie.Fabric
	// flashRead/flashWrite are the device's internal service rates
	// (§6: 2.4 GB/s read, 1.2 GB/s write).
	flashRead  *sim.Resource
	flashWrite *sim.Resource

	// failNext makes the next N commands complete with a media error
	// (fault injection for resilience tests).
	failNext int
	// inj, when set, is consulted on every Submit (plan-driven faults).
	inj FaultInjector

	// stats
	doorbells  int64
	interrupts int64
	commands   int64
	readBytes  int64
	writeBytes int64
	mediaErrs  int64

	tel           *telemetry.Sink
	telDoorbells  *telemetry.Counter
	telInterrupts *telemetry.Counter
	telCommands   *telemetry.Counter
	telReadBytes  *telemetry.Counter
	telWriteBytes *telemetry.Counter
	telMediaErrs  *telemetry.Counter
	telQueue      *telemetry.Queue
}

// New attaches an SSD with the given capacity to the fabric at socket.
func New(f *pcie.Fabric, name string, socket int, capacity int64) *Device {
	d := &Device{
		PCIeDev:    f.AddDevice(name, socket, capacity, model.LinkBWNVMe, model.LinkBWNVMe),
		fabric:     f,
		flashRead:  sim.NewResource(name+"-flash-rd", model.NVMeReadBW, model.NVMeCmdLatency),
		flashWrite: sim.NewResource(name+"-flash-wr", model.NVMeWriteBW, model.NVMeCmdLatency),
	}
	if tel := f.Telemetry(); tel != nil {
		d.tel = tel
		d.telDoorbells = tel.Counter("nvme.doorbells")
		d.telInterrupts = tel.Counter("nvme.interrupts")
		d.telCommands = tel.Counter("nvme.commands")
		d.telReadBytes = tel.Counter("nvme.read_bytes")
		d.telWriteBytes = tel.Counter("nvme.write_bytes")
		d.telMediaErrs = tel.Counter("nvme.media_errors")
		d.telQueue = tel.Queue("nvme.queue")
	}
	return d
}

// Capacity reports the device size in bytes.
func (d *Device) Capacity() int64 { return d.PCIeDev.Mem.Size() }

// Image exposes the raw flash contents for mkfs/fsck-style tooling that
// operates outside the timing model.
func (d *Device) Image() *pcie.Memory { return d.PCIeDev.Mem }

// Split fragments commands so none exceeds the device's maximum transfer
// size (MDTS); one file-system call on a fragmented file becomes several
// NVMe commands, which is exactly what the IO-vector interface coalesces.
// Empty commands are dropped. A vector with nothing to split or drop comes
// back unchanged, without a copy.
func Split(cmds []Command) []Command {
	i := 0
	for i < len(cmds) && cmds[i].Bytes > 0 && cmds[i].Bytes <= model.NVMeMaxTransfer {
		i++
	}
	if i == len(cmds) {
		return cmds
	}
	var out []Command
	for _, c := range cmds {
		for c.Bytes > model.NVMeMaxTransfer {
			head := c
			head.Bytes = model.NVMeMaxTransfer
			out = append(out, head)
			c.LBA += model.NVMeMaxTransfer / SectorSize
			c.Target.Off += model.NVMeMaxTransfer
			c.Bytes -= model.NVMeMaxTransfer
		}
		if c.Bytes > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Submit executes an IO vector on behalf of the calling (host driver)
// Proc and blocks until completion. With coalesce=true — the Solros
// optimized driver — the whole vector costs one doorbell ring and one
// interrupt; otherwise each command pays its own (the stock driver).
// Commands larger than MDTS are split automatically.
func (d *Device) Submit(p *sim.Proc, cmds []Command, coalesce bool) error {
	cmds = Split(cmds)
	if len(cmds) == 0 {
		return nil
	}
	for i := range cmds {
		if err := d.check(&cmds[i]); err != nil {
			return err
		}
	}
	sp := d.tel.Start(p, "nvme.submit")
	sp.Tag("op", cmds[0].Op.String())
	sp.TagInt("cmds", int64(len(cmds)))
	// Queue-depth accounting: the vector occupies the submission queue
	// from here until Submit returns on every path below.
	d.telQueue.ArriveN(p, int64(len(cmds)))
	defer d.telQueue.DepartN(p, int64(len(cmds)))
	injFail := false
	if d.inj != nil {
		fail, delay := d.inj.NVMeFault(p, cmds[0].Op == OpWrite)
		injFail = fail
		if delay > 0 {
			p.Advance(delay)
		}
	}
	if d.failNext > 0 || injFail {
		if d.failNext > 0 {
			d.failNext--
			if !injFail {
				// Plan-driven faults already dumped from the injector's
				// mark; InjectErrors-driven ones trigger here.
				d.tel.TriggerFlight(p, "nvme-media-error")
			}
		}
		d.mediaErrs++
		d.doorbells++
		d.interrupts++
		d.telMediaErrs.Add(1)
		d.telDoorbells.Add(1)
		d.telInterrupts.Add(1)
		// The command still costs a doorbell, the flash access, and an
		// interrupt before the error status comes back.
		p.Advance(model.NVMeDoorbellCost + model.NVMeCmdLatency + model.NVMeInterruptCost)
		sp.Tag("result", "media-error")
		sp.End(p)
		return ErrMedia
	}
	if coalesce {
		d.ring(p)
		tsp := d.startTransfer(p, cmds)
		var latest sim.Time
		for i := range cmds {
			if done := d.issue(p, &cmds[i]); done > latest {
				latest = done
			}
		}
		p.AdvanceTo(latest)
		tsp.End(p)
		d.interrupt(p)
		sp.End(p)
		return nil
	}
	tsp := d.startTransfer(p, cmds)
	for i := range cmds {
		d.ring(p)
		p.AdvanceTo(d.issue(p, &cmds[i]))
		d.interrupt(p)
	}
	tsp.End(p)
	sp.End(p)
	return nil
}

// ring charges one submission-queue doorbell write.
func (d *Device) ring(p *sim.Proc) {
	d.doorbells++
	d.telDoorbells.Add(1)
	d.fabric.CountTxn(1)
	p.Advance(model.NVMeDoorbellCost)
}

// interrupt charges one completion interrupt.
func (d *Device) interrupt(p *sim.Proc) {
	d.interrupts++
	d.telInterrupts.Add(1)
	p.Advance(model.NVMeInterruptCost)
}

// startTransfer opens the span covering a vector's data movement, so the
// trace shows the DMA window between doorbell and interrupt; peer-to-peer
// targets (a co-processor's memory) are labelled distinctly from host DMA.
func (d *Device) startTransfer(p *sim.Proc, cmds []Command) *telemetry.Span {
	name := "pcie.dma"
	for i := range cmds {
		if cmds[i].Target.Dev != nil {
			name = "pcie.p2p"
			break
		}
	}
	tsp := d.tel.Start(p, name)
	var bytes int64
	for i := range cmds {
		bytes += cmds[i].Bytes
	}
	tsp.TagInt("bytes", bytes)
	return tsp
}

// issue runs one command: reserve the flash backend and the PCIe path in
// parallel (the device pipelines NAND access with its DMA engine), move
// the real bytes, and return the completion time. The caller's clock is
// not advanced, so queued commands overlap.
func (d *Device) issue(p *sim.Proc, c *Command) sim.Time {
	off := c.LBA * SectorSize
	var srcDev, dstDev *pcie.Device
	var res *sim.Resource
	if c.Op == OpRead {
		copy(d.fabric.Mem(c.Target).Slice(c.Target.Off, c.Bytes), d.PCIeDev.Mem.Slice(off, c.Bytes))
		srcDev, dstDev = d.PCIeDev, c.Target.Dev
		res = d.flashRead
		d.readBytes += c.Bytes
		d.telReadBytes.Add(c.Bytes)
	} else {
		copy(d.PCIeDev.Mem.Slice(off, c.Bytes), d.fabric.Mem(c.Target).Slice(c.Target.Off, c.Bytes))
		srcDev, dstDev = c.Target.Dev, d.PCIeDev
		res = d.flashWrite
		d.writeBytes += c.Bytes
		d.telWriteBytes.Add(c.Bytes)
	}
	d.commands++
	d.telCommands.Add(1)
	linkDone := d.fabric.StreamAsync(p, srcDev, dstDev, c.Bytes)
	flashDone := p.UseAsyncPipelined(res, c.Bytes)
	if linkDone > flashDone {
		return linkDone
	}
	return flashDone
}

func (d *Device) check(c *Command) error {
	off := c.LBA * SectorSize
	if c.LBA < 0 || c.Bytes < 0 || off+c.Bytes > d.Capacity() {
		return fmt.Errorf("nvme: command out of range: lba=%d bytes=%d cap=%d", c.LBA, c.Bytes, d.Capacity())
	}
	return nil
}

// ReadAt synchronously reads n bytes at byte offset off into a target
// location, as a single (possibly split) coalesced vector. Convenience
// for callers that address bytes rather than sectors; off must be
// sector-aligned.
func (d *Device) ReadAt(p *sim.Proc, off, n int64, target pcie.Loc, coalesce bool) error {
	return d.Submit(p, []Command{{Op: OpRead, LBA: off / SectorSize, Bytes: n, Target: target}}, coalesce)
}

// WriteAt synchronously writes n bytes from target to byte offset off.
func (d *Device) WriteAt(p *sim.Proc, off, n int64, target pcie.Loc, coalesce bool) error {
	return d.Submit(p, []Command{{Op: OpWrite, LBA: off / SectorSize, Bytes: n, Target: target}}, coalesce)
}

// InjectErrors makes the next n Submit calls fail with ErrMedia.
func (d *Device) InjectErrors(n int) { d.failNext = n }

// SetInjector installs a plan-driven fault injector; nil disables it.
func (d *Device) SetInjector(inj FaultInjector) { d.inj = inj }

// Stats reports doorbell rings, interrupts, commands, and bytes moved.
type Stats struct {
	Doorbells, Interrupts, Commands int64
	ReadBytes, WriteBytes           int64
	MediaErrors                     int64
}

// Stats returns a snapshot of the device's counters.
func (d *Device) Stats() Stats {
	return Stats{
		Doorbells:   d.doorbells,
		Interrupts:  d.interrupts,
		Commands:    d.commands,
		ReadBytes:   d.readBytes,
		WriteBytes:  d.writeBytes,
		MediaErrors: d.mediaErrs,
	}
}

// ResetStats clears counters and flash queueing state between benchmark
// iterations.
func (d *Device) ResetStats() {
	d.doorbells, d.interrupts, d.commands = 0, 0, 0
	d.readBytes, d.writeBytes = 0, 0
	d.flashRead.Reset()
	d.flashWrite.Reset()
}

// FlashBusy reports the cumulative busy time of the flash backend (read
// plus write service), for latency breakdowns.
func (d *Device) FlashBusy() sim.Time {
	_, _, rd := d.flashRead.Stats()
	_, _, wr := d.flashWrite.Stats()
	return rd + wr
}

// InterruptCostFor reports the host CPU time the stock (non-coalescing)
// driver spends on interrupts for an n-byte transfer, for latency
// breakdowns.
func InterruptCostFor(n int64, coalesce bool) sim.Time {
	if coalesce {
		return model.NVMeInterruptCost
	}
	cmds := (n + model.NVMeMaxTransfer - 1) / model.NVMeMaxTransfer
	return sim.Time(cmds) * model.NVMeInterruptCost
}
