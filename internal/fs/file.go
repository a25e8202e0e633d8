package fs

import (
	"fmt"

	"solros/internal/block"
	"solros/internal/pcie"
	"solros/internal/sim"
)

// This file implements file data paths: buffered reads/writes through host
// staging memory, zero-copy transfers to arbitrary fabric memory (the
// building block of the proxy's peer-to-peer mode), extent allocation, and
// the fiemap query that lets the control plane translate file offsets to
// disk blocks (§5, "we get an inverse mapping ... using fiemap ioctl").

// Ino reports the file's inode number.
func (f *File) Ino() uint32 { return f.in.ino }

// Size reports the file's current size in bytes.
func (f *File) Size() int64 { return f.in.size }

// IsDir reports whether the file is a directory.
func (f *File) IsDir() bool { return f.in.mode == ModeDir }

// allocatedBlocks reports how many file blocks have disk backing.
func allocatedBlocks(in *inode) uint32 {
	if len(in.extents) == 0 {
		return 0
	}
	last := in.extents[len(in.extents)-1]
	return last.Logical + last.Count
}

// appendDiskOps is the extent walker: it appends to dst the block-device
// operations that move [off, off+n) of in to or from target memory — host
// RAM for buffered mode, co-processor memory for peer-to-peer — one per
// extent the range touches. The vector is what the Solros driver
// coalesces into one doorbell/interrupt pair. The range must be fully
// allocated.
func appendDiskOps(dst []block.Op, in *inode, write bool, off, n int64, target pcie.Loc) ([]block.Op, error) {
	if off < 0 || n < 0 {
		return dst, fmt.Errorf("solrosfs: negative range off=%d n=%d", off, n)
	}
	if n == 0 {
		return dst, nil
	}
	end := off + n
	if uint32((end+BlockSize-1)/BlockSize) > allocatedBlocks(in) {
		return dst, fmt.Errorf("solrosfs: range [%d,%d) beyond allocation of inode %d", off, end, in.ino)
	}
	var covered int64
	for _, e := range in.extents {
		eStart := int64(e.Logical) * BlockSize
		eEnd := eStart + int64(e.Count)*BlockSize
		lo, hi := max(off, eStart), min(end, eEnd)
		if lo >= hi {
			continue
		}
		dst = append(dst, block.Op{
			Write:  write,
			Off:    int64(e.Start)*BlockSize + (lo - eStart),
			Bytes:  hi - lo,
			Target: pcie.Loc{Dev: target.Dev, Off: target.Off + (lo - off)},
		})
		covered += hi - lo
	}
	if covered != n {
		return dst, fmt.Errorf("solrosfs: extent map hole in inode %d: covered %d of %d", in.ino, covered, n)
	}
	return dst, nil
}

// Fiemap returns the extents covering [off, off+n), the equivalent of the
// fiemap ioctl the Solros proxy uses for peer-to-peer translation.
func (f *File) Fiemap(off, n int64) ([]Extent, error) {
	// With a zero target, each op's Target.Off is its file offset - off.
	ops, err := appendDiskOps(nil, f.in, false, off, n, pcie.Loc{})
	if err != nil {
		return nil, err
	}
	out := make([]Extent, 0, len(ops))
	for _, o := range ops {
		out = append(out, Extent{
			Logical: uint32((off + o.Target.Off) / BlockSize),
			Start:   uint32(o.Off / BlockSize),
			Count:   uint32((o.Bytes + BlockSize - 1) / BlockSize),
		})
	}
	return out, nil
}

// diskIO moves [off, off+n) of in between the disk and target memory as
// one IO vector. The vector is checked out of the FS's free list and
// checked back in once the device returns: it stays live while the device
// parks the proc, so every in-flight I/O holds its own and a steady state
// allocates none.
func (fs *FS) diskIO(p *sim.Proc, in *inode, write bool, off, n int64, target pcie.Loc, coalesce bool) error {
	var ops []block.Op
	if k := len(fs.opVecs); k > 0 {
		ops = fs.opVecs[k-1]
		fs.opVecs = fs.opVecs[:k-1]
	}
	ops, err := appendDiskOps(ops, in, write, off, n, target)
	if err == nil {
		err = fs.disk.Vector(p, ops, coalesce)
	}
	if cap(ops) > 0 {
		fs.opVecs = append(fs.opVecs, ops[:0])
	}
	return err
}

// ReadTo transfers [off, off+n) of the file directly into target memory
// (zero-copy with respect to the host CPU): the device's DMA engine writes
// straight to the target, which may be a co-processor's PCIe window.
func (f *File) ReadTo(p *sim.Proc, off, n int64, target pcie.Loc, coalesce bool) error {
	// Device I/O is block-granular, so the bound is the allocation, not
	// the byte size; Read enforces byte-level EOF semantics.
	if lim := int64(allocatedBlocks(f.in)) * BlockSize; off+n > lim {
		return fmt.Errorf("solrosfs: read [%d,%d) past allocation %d", off, off+n, lim)
	}
	return f.fs.diskIO(p, f.in, false, off, n, target, coalesce)
}

// WriteFrom transfers n bytes from source memory into the file at off,
// allocating blocks and extending the size as needed.
func (f *File) WriteFrom(p *sim.Proc, off, n int64, source pcie.Loc, coalesce bool) error {
	if err := f.AllocRange(p, off, n); err != nil {
		return err
	}
	return f.fs.diskIO(p, f.in, true, off, n, source, coalesce)
}

// Read copies file data into dst through host staging memory, returning
// the number of bytes read (short at EOF).
func (f *File) Read(p *sim.Proc, off int64, dst []byte) (int, error) {
	n := int64(len(dst))
	if off >= f.in.size {
		return 0, nil
	}
	if off+n > f.in.size {
		n = f.in.size - off
	}
	if n == 0 {
		return 0, nil
	}
	// Widen to block granularity on disk, then copy out the middle.
	aOff := off &^ (BlockSize - 1)
	aEnd := (off + n + BlockSize - 1) &^ (BlockSize - 1)
	if lim := (int64(allocatedBlocks(f.in))) * BlockSize; aEnd > lim {
		aEnd = lim
	}
	span := aEnd - aOff
	buf, put := f.fs.staging.get(span)
	defer put()
	if err := f.ReadTo(p, aOff, span, buf, true); err != nil {
		return 0, err
	}
	copy(dst[:n], f.fs.staging.bytes(buf, span)[off-aOff:])
	return int(n), nil
}

// Write copies src into the file at off through host staging memory.
func (f *File) Write(p *sim.Proc, off int64, src []byte) (int, error) {
	n := int64(len(src))
	if n == 0 {
		return 0, nil
	}
	if err := f.AllocRange(p, off, n); err != nil {
		return 0, err
	}
	// Read-modify-write the partial edge blocks when overwriting
	// existing data; fresh blocks are ours wholesale.
	aOff := off &^ (BlockSize - 1)
	aEnd := (off + n + BlockSize - 1) &^ (BlockSize - 1)
	span := aEnd - aOff
	buf, put := f.fs.staging.get(span)
	defer put()
	stg := f.fs.staging.bytes(buf, span)
	if aOff < off || off+n < aEnd {
		if err := f.fs.diskIO(p, f.in, false, aOff, span, buf, true); err != nil {
			return 0, err
		}
	}
	copy(stg[off-aOff:], src)
	if err := f.fs.diskIO(p, f.in, true, aOff, span, buf, true); err != nil {
		return 0, err
	}
	return int(n), nil
}

// AllocRange ensures disk blocks back [off, off+n) and extends the file
// size to cover it. This is the metadata half of a write, which the proxy
// performs before issuing a peer-to-peer p2p_write (§4.3.2).
func (f *File) AllocRange(p *sim.Proc, off, n int64) error {
	fs := f.fs
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	return fs.allocRangeLocked(f.in, off, n)
}

func (fs *FS) allocRangeLocked(in *inode, off, n int64) error {
	needEnd := uint32((off + n + BlockSize - 1) / BlockSize)
	for allocatedBlocks(in) < needEnd {
		have := allocatedBlocks(in)
		start, got, err := fs.allocRun(needEnd - have)
		if err != nil {
			return err
		}
		// Merge with the previous extent when physically contiguous.
		if len(in.extents) > 0 {
			last := &in.extents[len(in.extents)-1]
			if last.Start+last.Count == start {
				last.Count += got
				fs.markInodeDirty(in)
				continue
			}
		}
		if len(in.extents) == InlineExtents && in.indirect == 0 {
			idb, cnt, err := fs.allocRun(1)
			if err != nil || cnt != 1 {
				fs.freeRun(start, got)
				if err == nil {
					err = ErrNoSpace
				}
				return err
			}
			in.indirect = idb
		}
		if len(in.extents) >= InlineExtents+IndirectExtents {
			fs.freeRun(start, got)
			return ErrFileTooBig
		}
		in.extents = append(in.extents, Extent{Logical: have, Start: start, Count: got})
		fs.markInodeDirty(in)
	}
	if off+n > in.size {
		in.size = off + n
		fs.markInodeDirty(in)
	}
	return nil
}

// Truncate shrinks or grows the file to size (growth allocates zeroed-by-
// convention blocks; solrosfs does not support holes).
func (f *File) Truncate(p *sim.Proc, size int64) error {
	fs := f.fs
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	if size > f.in.size {
		return fs.allocRangeLocked(f.in, 0, size)
	}
	return fs.truncInode(f.in, size)
}

// truncInode shrinks the inode to size, freeing blocks beyond it.
func (fs *FS) truncInode(in *inode, size int64) error {
	keep := uint32((size + BlockSize - 1) / BlockSize)
	for len(in.extents) > 0 {
		last := &in.extents[len(in.extents)-1]
		if last.Logical >= keep {
			fs.freeRun(last.Start, last.Count)
			in.extents = in.extents[:len(in.extents)-1]
			continue
		}
		if last.Logical+last.Count > keep {
			drop := last.Logical + last.Count - keep
			fs.freeRun(last.Start+last.Count-drop, drop)
			last.Count -= drop
		}
		break
	}
	if len(in.extents) <= InlineExtents && in.indirect != 0 {
		fs.freeRun(in.indirect, 1)
		in.indirect = 0
	}
	in.size = size
	fs.markInodeDirty(in)
	return nil
}

// readInodeRange and writeInodeRange are the lock-free inode-level data
// paths used internally for directory content (callers already hold fs.mu).
func (fs *FS) readInodeRange(p *sim.Proc, in *inode, off int64, dst []byte) (int, error) {
	f := File{fs: fs, in: in}
	return f.Read(p, off, dst)
}

func (fs *FS) writeInodeRange(p *sim.Proc, in *inode, off int64, src []byte) (int, error) {
	n := int64(len(src))
	if n == 0 {
		return 0, nil
	}
	if err := fs.allocRangeLocked(in, off, n); err != nil {
		return 0, err
	}
	aOff := off &^ (BlockSize - 1)
	aEnd := (off + n + BlockSize - 1) &^ (BlockSize - 1)
	span := aEnd - aOff
	buf, put := fs.staging.get(span)
	defer put()
	stg := fs.staging.bytes(buf, span)
	copy(stg[off-aOff:], src)
	if err := fs.diskIO(p, in, true, aOff, span, buf, true); err != nil {
		return 0, err
	}
	return int(n), nil
}

// Staging returns a scratch host-RAM location of at least n bytes and its
// release function; services use it to stage buffered transfers.
func (fs *FS) Staging(n int64) (pcie.Loc, []byte, func()) {
	loc, put := fs.staging.get(n)
	return loc, fs.staging.bytes(loc, n), put
}
