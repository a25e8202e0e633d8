// Package block is the thin layer between file systems and storage
// devices: a vectored I/O interface that preserves the batching the Solros
// NVMe driver exploits (§5), an adapter for the NVMe model, and an
// instant in-memory disk for unit tests.
package block

import (
	"fmt"

	"solros/internal/nvme"
	"solros/internal/pcie"
	"solros/internal/sim"
)

// Op is one disk transfer: Bytes at byte offset Off on the device, from/to
// Target memory.
type Op struct {
	Write  bool
	Off    int64
	Bytes  int64
	Target pcie.Loc
}

// Device is a byte-addressed (sector-aligned) disk accepting IO vectors.
// coalesce=true asks the driver to batch the vector into one doorbell and
// one interrupt (the Solros-optimized path).
type Device interface {
	Capacity() int64
	Vector(p *sim.Proc, ops []Op, coalesce bool) error
	// Image exposes raw contents for offline tools (mkfs, fsck).
	Image() *pcie.Memory
}

// NVMe adapts the nvme device model to the block interface.
type NVMe struct {
	Dev *nvme.Device
}

// Capacity reports the underlying device size.
func (n NVMe) Capacity() int64 { return n.Dev.Capacity() }

// Image exposes the flash image.
func (n NVMe) Image() *pcie.Memory { return n.Dev.Image() }

// vectorStack is how many commands Vector converts in stack storage; a
// longer vector (a file fragmented across more extents) grows onto the
// heap.
const vectorStack = 8

// Vector converts ops to NVMe commands and submits them as one IO vector.
// The commands live on the calling proc's own stack, so they stay valid
// while Submit parks the proc, no two in-flight vectors share storage,
// and a short vector costs no heap allocation.
func (n NVMe) Vector(p *sim.Proc, ops []Op, coalesce bool) error {
	var stack [vectorStack]nvme.Command
	cmds := stack[:0]
	for _, o := range ops {
		if o.Off%nvme.SectorSize != 0 {
			return fmt.Errorf("block: unaligned offset %d", o.Off)
		}
		op := nvme.OpRead
		if o.Write {
			op = nvme.OpWrite
		}
		cmds = append(cmds, nvme.Command{Op: op, LBA: o.Off / nvme.SectorSize, Bytes: o.Bytes, Target: o.Target})
	}
	return n.Dev.Submit(p, cmds, coalesce)
}

// MemDisk is an instant in-memory disk: correct data movement with zero
// virtual-time cost. For file-system unit tests where timing is noise.
type MemDisk struct {
	img    *pcie.Memory
	fabric *pcie.Fabric
}

// NewMemDisk creates a standalone disk image of the given size. Targets in
// Vector ops are resolved against fabric f.
func NewMemDisk(f *pcie.Fabric, capacity int64) *MemDisk {
	return &MemDisk{img: pcie.NewMemory(capacity), fabric: f}
}

// WrapImage exposes an existing image as an instant disk (offline tools).
func WrapImage(f *pcie.Fabric, img *pcie.Memory) *MemDisk {
	return &MemDisk{img: img, fabric: f}
}

// Capacity reports the disk size.
func (m *MemDisk) Capacity() int64 { return m.img.Size() }

// Image exposes the raw image.
func (m *MemDisk) Image() *pcie.Memory { return m.img }

// Vector performs the transfers instantly.
func (m *MemDisk) Vector(p *sim.Proc, ops []Op, coalesce bool) error {
	for _, o := range ops {
		if o.Off < 0 || o.Off+o.Bytes > m.Capacity() {
			return fmt.Errorf("block: out of range: off=%d bytes=%d", o.Off, o.Bytes)
		}
		img := m.img.Slice(o.Off, o.Bytes)
		t := m.fabric.Mem(o.Target).Slice(o.Target.Off, o.Bytes)
		if o.Write {
			copy(img, t)
		} else {
			copy(t, img)
		}
	}
	return nil
}
