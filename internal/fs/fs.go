package fs

import (
	"fmt"
	"sort"
	"strings"

	"solros/internal/block"
	"solros/internal/pcie"
	"solros/internal/sim"
)

// FS is a mounted solrosfs instance. Metadata (superblock, bitmap, inode
// table) is cached in memory at mount, updated write-back, and flushed by
// Sync — the usual page-cache discipline, so steady-state data I/O costs
// only data transfers. All mutating operations serialize on an internal
// virtual-time lock.
type FS struct {
	disk   block.Device
	fabric *pcie.Fabric

	sb     superblock
	bitmap []byte
	inodes []inode
	// dirty tracking at block granularity
	dirtyBitmap map[uint32]bool
	dirtyITable map[uint32]bool

	mu      *sim.Lock
	staging *stagingPool
	rotor   uint32 // allocator scan position
	// opVecs is the free list of disk-op vectors behind diskIO.
	opVecs [][]block.Op
}

// Mkfs formats a disk image with ninodes inodes. It operates directly on
// the image (an offline tool, outside the timing model).
func Mkfs(img *pcie.Memory, ninodes uint32) error {
	nblocks := uint64(img.Size() / BlockSize)
	if nblocks < 16 {
		return fmt.Errorf("solrosfs: device too small (%d blocks)", nblocks)
	}
	if ninodes == 0 {
		ninodes = uint32(nblocks / 64)
		if ninodes < 64 {
			ninodes = 64
		}
	}
	bitmapBlocks := uint32((nblocks + BlockSize*8 - 1) / (BlockSize * 8))
	itableBlocks := (ninodes + InodesPerBlock - 1) / InodesPerBlock
	sb := superblock{
		BlockSize:    BlockSize,
		NBlocks:      nblocks,
		NInodes:      itableBlocks * InodesPerBlock,
		BitmapStart:  1,
		BitmapBlocks: bitmapBlocks,
		ITableStart:  1 + bitmapBlocks,
		ITableBlocks: itableBlocks,
		DataStart:    1 + bitmapBlocks + itableBlocks,
	}
	if uint64(sb.DataStart) >= nblocks {
		return fmt.Errorf("solrosfs: metadata does not fit on device")
	}
	// Zero all metadata blocks.
	for b := uint32(0); b < sb.DataStart; b++ {
		blk := img.Slice(int64(b)*BlockSize, BlockSize)
		for i := range blk {
			blk[i] = 0
		}
	}
	sb.encode(img.Slice(0, BlockSize))
	// Mark metadata blocks (and tail bits beyond NBlocks) allocated.
	bm := img.Slice(int64(sb.BitmapStart)*BlockSize, int64(bitmapBlocks)*BlockSize)
	for b := uint64(0); b < uint64(sb.DataStart); b++ {
		bm[b/8] |= 1 << (b % 8)
	}
	for b := nblocks; b < uint64(bitmapBlocks)*BlockSize*8; b++ {
		bm[b/8] |= 1 << (b % 8)
	}
	// Root directory: inode 1, empty.
	root := inode{ino: RootIno, mode: ModeDir, nlink: 2}
	slotOff := int64(sb.ITableStart)*BlockSize + RootIno*InodeSize
	root.encodeInto(img.Slice(slotOff, InodeSize), nil)
	return nil
}

// Mount loads a formatted disk's metadata through timed device reads and
// returns a usable FS with staging buffers in host RAM.
func Mount(p *sim.Proc, fab *pcie.Fabric, disk block.Device) (*FS, error) {
	return MountAt(p, fab, disk, fab.HostRAM)
}

// MountAt mounts with staging buffers carved from mem — co-processor
// memory when the file system itself runs on a co-processor (the stock
// Xeon Phi baseline).
func MountAt(p *sim.Proc, fab *pcie.Fabric, disk block.Device, mem *pcie.Memory) (*FS, error) {
	fsys := &FS{
		disk:        disk,
		fabric:      fab,
		dirtyBitmap: make(map[uint32]bool),
		dirtyITable: make(map[uint32]bool),
		mu:          sim.NewLock("solrosfs"),
		staging:     newStagingPool(mem),
	}
	buf, put := fsys.staging.get(BlockSize)
	defer put()
	if err := fsys.readBlocks(p, 0, 1, buf); err != nil {
		return nil, err
	}
	if err := fsys.sb.decode(fsys.staging.bytes(buf, BlockSize)); err != nil {
		return nil, err
	}
	sb := &fsys.sb
	// Bitmap.
	fsys.bitmap = make([]byte, int64(sb.BitmapBlocks)*BlockSize)
	bmBuf, putBM := fsys.staging.get(int64(len(fsys.bitmap)))
	if err := fsys.readBlocks(p, int64(sb.BitmapStart), int64(sb.BitmapBlocks), bmBuf); err != nil {
		putBM()
		return nil, err
	}
	copy(fsys.bitmap, fsys.staging.bytes(bmBuf, int64(len(fsys.bitmap))))
	putBM()
	// Inode table.
	fsys.inodes = make([]inode, sb.NInodes)
	itBytes := int64(sb.ITableBlocks) * BlockSize
	itBuf, putIT := fsys.staging.get(itBytes)
	if err := fsys.readBlocks(p, int64(sb.ITableStart), int64(sb.ITableBlocks), itBuf); err != nil {
		putIT()
		return nil, err
	}
	table := fsys.staging.bytes(itBuf, itBytes)
	type spill struct {
		ino     uint32
		spilled int
	}
	var spills []spill
	for i := range fsys.inodes {
		in := &fsys.inodes[i]
		in.ino = uint32(i)
		if s := in.decodeFrom(table[i*InodeSize : (i+1)*InodeSize]); s > 0 {
			spills = append(spills, spill{uint32(i), s})
		}
	}
	putIT()
	// Indirect extent blocks.
	for _, s := range spills {
		in := &fsys.inodes[s.ino]
		idb, putIDB := fsys.staging.get(BlockSize)
		if err := fsys.readBlocks(p, int64(in.indirect), 1, idb); err != nil {
			putIDB()
			return nil, err
		}
		in.decodeIndirect(fsys.staging.bytes(idb, BlockSize), s.spilled)
		putIDB()
	}
	if fsys.inodes[RootIno].mode != ModeDir {
		return nil, ErrBadFS
	}
	fsys.rotor = sb.DataStart
	return fsys, nil
}

// Fabric reports the fabric this FS charges I/O against.
func (fs *FS) Fabric() *pcie.Fabric { return fs.fabric }

// Disk reports the underlying block device.
func (fs *FS) Disk() block.Device { return fs.disk }

// readBlocks reads count blocks starting at block blk into a staging loc.
func (fs *FS) readBlocks(p *sim.Proc, blk, count int64, dst pcie.Loc) error {
	return fs.disk.Vector(p, []block.Op{{
		Off: blk * BlockSize, Bytes: count * BlockSize, Target: dst,
	}}, true)
}

func (fs *FS) writeBlocks(p *sim.Proc, blk, count int64, src pcie.Loc) error {
	return fs.disk.Vector(p, []block.Op{{
		Write: true, Off: blk * BlockSize, Bytes: count * BlockSize, Target: src,
	}}, true)
}

// --- bitmap allocator -----------------------------------------------------

func (fs *FS) blockUsed(b uint32) bool {
	return fs.bitmap[b/8]&(1<<(b%8)) != 0
}

func (fs *FS) setBlock(b uint32, used bool) {
	if used {
		fs.bitmap[b/8] |= 1 << (b % 8)
	} else {
		fs.bitmap[b/8] &^= 1 << (b % 8)
	}
	fs.dirtyBitmap[uint32(b/8/BlockSize)] = true
}

// allocRun allocates up to want contiguous blocks, returning the start and
// the length obtained (>=1), or ErrNoSpace.
func (fs *FS) allocRun(want uint32) (uint32, uint32, error) {
	n := uint32(fs.sb.NBlocks)
	// Two passes from the rotor.
	bestStart, bestLen := uint32(0), uint32(0)
	cur, curLen := uint32(0), uint32(0)
	scan := func(from, to uint32) bool {
		for b := from; b < to; b++ {
			if fs.blockUsed(b) {
				curLen = 0
				continue
			}
			if curLen == 0 {
				cur = b
			}
			curLen++
			if curLen > bestLen {
				bestStart, bestLen = cur, curLen
				if bestLen >= want {
					return true
				}
			}
		}
		curLen = 0
		return false
	}
	if !scan(fs.rotor, n) {
		scan(fs.sb.DataStart, fs.rotor)
	}
	if bestLen == 0 {
		return 0, 0, ErrNoSpace
	}
	if bestLen > want {
		bestLen = want
	}
	for b := bestStart; b < bestStart+bestLen; b++ {
		fs.setBlock(b, true)
	}
	fs.rotor = bestStart + bestLen
	if fs.rotor >= n {
		fs.rotor = fs.sb.DataStart
	}
	return bestStart, bestLen, nil
}

func (fs *FS) freeRun(start, count uint32) {
	for b := start; b < start+count; b++ {
		fs.setBlock(b, false)
	}
}

// --- inode management ------------------------------------------------------

func (fs *FS) allocInode(mode uint16) (*inode, error) {
	for i := RootIno + 1; i < len(fs.inodes); i++ {
		in := &fs.inodes[i]
		if in.mode == ModeFree {
			*in = inode{ino: uint32(i), mode: mode, nlink: 1, dirty: true}
			fs.markInodeDirty(in)
			return in, nil
		}
	}
	return nil, ErrNoInodes
}

func (fs *FS) markInodeDirty(in *inode) {
	in.dirty = true
	fs.dirtyITable[in.ino/InodesPerBlock] = true
}

// freeInode releases all blocks of in and clears it.
func (fs *FS) freeInode(in *inode) {
	for _, e := range in.extents {
		fs.freeRun(e.Start, e.Count)
	}
	if in.indirect != 0 {
		fs.freeRun(in.indirect, 1)
	}
	ino := in.ino
	*in = inode{ino: ino}
	fs.markInodeDirty(in)
}

// --- path resolution --------------------------------------------------------

// splitPath normalizes an absolute path into components.
func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("solrosfs: path %q not absolute", path)
	}
	var parts []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			return nil, fmt.Errorf("solrosfs: %q: .. not supported", path)
		default:
			if len(c) > MaxName {
				return nil, ErrNameTooLon
			}
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// lookup resolves path to an inode; with parent=true it resolves to the
// parent directory and returns the final name.
func (fs *FS) lookup(p *sim.Proc, path string, parent bool) (*inode, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, "", err
	}
	last := ""
	if parent {
		if len(parts) == 0 {
			return nil, "", fmt.Errorf("solrosfs: %q has no parent entry", path)
		}
		last = parts[len(parts)-1]
		parts = parts[:len(parts)-1]
	}
	cur := &fs.inodes[RootIno]
	for _, name := range parts {
		if cur.mode != ModeDir {
			return nil, "", ErrNotDir
		}
		ents, err := fs.readDirInode(p, cur)
		if err != nil {
			return nil, "", err
		}
		found := false
		for _, d := range ents {
			if d.Name == name {
				cur = &fs.inodes[d.Ino]
				found = true
				break
			}
		}
		if !found {
			return nil, "", ErrNotExist
		}
	}
	return cur, last, nil
}

// readDirInode reads and parses a directory's content.
func (fs *FS) readDirInode(p *sim.Proc, dir *inode) ([]Dirent, error) {
	if dir.size == 0 {
		return nil, nil
	}
	buf := make([]byte, dir.size)
	if _, err := fs.readInodeRange(p, dir, 0, buf); err != nil {
		return nil, err
	}
	return parseDirents(buf)
}

// writeDirInode replaces a directory's content wholesale via a shadow
// update: the new content is staged into freshly allocated blocks while
// the old ones stay live, and the inode switches over only once the write
// has landed. A failed write (a transient media error ridden out by
// degraded mode) therefore leaves the old directory readable instead of
// pointing the inode at never-written blocks — failure atomicity for
// namespace updates without a journal.
func (fs *FS) writeDirInode(p *sim.Proc, dir *inode, ents []Dirent) error {
	var buf []byte
	for _, d := range ents {
		buf = appendDirent(buf, d)
	}
	oldExt := append([]Extent(nil), dir.extents...)
	oldInd, oldSize := dir.indirect, dir.size
	dir.extents, dir.indirect, dir.size = nil, 0, 0
	if len(buf) > 0 {
		if _, err := fs.writeInodeRange(p, dir, 0, buf); err != nil {
			fs.truncInode(dir, 0) // free the shadow blocks
			dir.extents, dir.indirect, dir.size = oldExt, oldInd, oldSize
			fs.markInodeDirty(dir)
			return err
		}
	}
	for _, e := range oldExt {
		fs.freeRun(e.Start, e.Count)
	}
	if oldInd != 0 {
		fs.freeRun(oldInd, 1)
	}
	fs.markInodeDirty(dir)
	return nil
}

// --- public namespace operations -------------------------------------------

// File is an open solrosfs file (or directory).
type File struct {
	fs *FS
	in *inode
}

// Create makes a new empty regular file; it fails if path exists.
func (fs *FS) Create(p *sim.Proc, path string) (*File, error) {
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	return fs.createLocked(p, path, ModeFile)
}

// Mkdir creates an empty directory.
func (fs *FS) Mkdir(p *sim.Proc, path string) error {
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	_, err := fs.createLocked(p, path, ModeDir)
	return err
}

func (fs *FS) createLocked(p *sim.Proc, path string, mode uint16) (*File, error) {
	dir, name, err := fs.lookup(p, path, true)
	if err != nil {
		return nil, err
	}
	if dir.mode != ModeDir {
		return nil, ErrNotDir
	}
	ents, err := fs.readDirInode(p, dir)
	if err != nil {
		return nil, err
	}
	for _, d := range ents {
		if d.Name == name {
			return nil, ErrExist
		}
	}
	in, err := fs.allocInode(mode)
	if err != nil {
		return nil, err
	}
	ents = append(ents, Dirent{Ino: in.ino, Type: mode, Name: name})
	if err := fs.writeDirInode(p, dir, ents); err != nil {
		fs.freeInode(in)
		return nil, err
	}
	return &File{fs: fs, in: in}, nil
}

// Open opens an existing file or directory.
func (fs *FS) Open(p *sim.Proc, path string) (*File, error) {
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	in, _, err := fs.lookup(p, path, false)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, in: in}, nil
}

// OpenOrCreate opens path, creating it if absent.
func (fs *FS) OpenOrCreate(p *sim.Proc, path string) (*File, error) {
	f, err := fs.Open(p, path)
	if err == ErrNotExist {
		return fs.Create(p, path)
	}
	return f, err
}

// Unlink removes a file or an empty directory.
func (fs *FS) Unlink(p *sim.Proc, path string) error {
	_, _, err := fs.UnlinkIno(p, path)
	return err
}

// UnlinkIno is Unlink, additionally reporting which inode the name
// resolved to and whether that was its last link (the inode and its blocks
// were freed). Callers holding caches keyed by inode number use this to
// invalidate without a second, separately-timed path lookup.
func (fs *FS) UnlinkIno(p *sim.Proc, path string) (ino uint32, freed bool, err error) {
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	dir, name, err := fs.lookup(p, path, true)
	if err != nil {
		return 0, false, err
	}
	ents, err := fs.readDirInode(p, dir)
	if err != nil {
		return 0, false, err
	}
	idx := -1
	for i, d := range ents {
		if d.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false, ErrNotExist
	}
	victim := &fs.inodes[ents[idx].Ino]
	if victim.mode == ModeDir {
		sub, err := fs.readDirInode(p, victim)
		if err != nil {
			return 0, false, err
		}
		if len(sub) > 0 {
			return 0, false, ErrNotEmpty
		}
	}
	ents = append(ents[:idx], ents[idx+1:]...)
	if err := fs.writeDirInode(p, dir, ents); err != nil {
		return 0, false, err
	}
	ino = victim.ino
	// Hard links: only drop the inode when the last name goes away.
	if victim.nlink > 1 {
		victim.nlink--
		fs.markInodeDirty(victim)
		return ino, false, nil
	}
	fs.freeInode(victim)
	return ino, true, nil
}

// Link creates a second directory entry (hard link) for an existing
// regular file. Directories cannot be hard-linked (cycle risk).
func (fs *FS) Link(p *sim.Proc, oldPath, newPath string) error {
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	target, _, err := fs.lookup(p, oldPath, false)
	if err != nil {
		return err
	}
	if target.mode == ModeDir {
		return ErrIsDir
	}
	dir, name, err := fs.lookup(p, newPath, true)
	if err != nil {
		return err
	}
	if dir.mode != ModeDir {
		return ErrNotDir
	}
	ents, err := fs.readDirInode(p, dir)
	if err != nil {
		return err
	}
	for _, d := range ents {
		if d.Name == name {
			return ErrExist
		}
	}
	ents = append(ents, Dirent{Ino: target.ino, Type: target.mode, Name: name})
	if err := fs.writeDirInode(p, dir, ents); err != nil {
		return err
	}
	target.nlink++
	fs.markInodeDirty(target)
	return nil
}

// Rename moves a file or directory to a new path (both absolute). It is
// atomic with respect to other FS operations (everything serializes on
// the FS lock) and refuses to clobber an existing target.
func (fs *FS) Rename(p *sim.Proc, oldPath, newPath string) error {
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	oldDir, oldName, err := fs.lookup(p, oldPath, true)
	if err != nil {
		return err
	}
	newDir, newName, err := fs.lookup(p, newPath, true)
	if err != nil {
		return err
	}
	if newDir.mode != ModeDir {
		return ErrNotDir
	}
	oldEnts, err := fs.readDirInode(p, oldDir)
	if err != nil {
		return err
	}
	idx := -1
	for i, d := range oldEnts {
		if d.Name == oldName {
			idx = i
			break
		}
	}
	if idx < 0 {
		return ErrNotExist
	}
	moved := oldEnts[idx]
	// Moving a directory into itself would orphan the subtree.
	if moved.Type == ModeDir && strings.HasPrefix(newPath+"/", oldPath+"/") {
		return fmt.Errorf("solrosfs: cannot move %q into itself", oldPath)
	}
	newEnts, err := fs.readDirInode(p, newDir)
	if err != nil {
		return err
	}
	for _, d := range newEnts {
		if d.Name == newName {
			return ErrExist
		}
	}
	if oldDir == newDir {
		// Single-directory rename: one rewrite.
		oldEnts[idx].Name = newName
		return fs.writeDirInode(p, oldDir, oldEnts)
	}
	oldEnts = append(oldEnts[:idx], oldEnts[idx+1:]...)
	if err := fs.writeDirInode(p, oldDir, oldEnts); err != nil {
		return err
	}
	moved.Name = newName
	newEnts = append(newEnts, moved)
	return fs.writeDirInode(p, newDir, newEnts)
}

// FileInfo is the stat result.
type FileInfo struct {
	Ino     uint32
	Mode    uint16
	Size    int64
	Extents int
}

// Stat reports metadata for path.
func (fs *FS) Stat(p *sim.Proc, path string) (FileInfo, error) {
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	in, _, err := fs.lookup(p, path, false)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Ino: in.ino, Mode: in.mode, Size: in.size, Extents: len(in.extents)}, nil
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(p *sim.Proc, path string) ([]Dirent, error) {
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	in, _, err := fs.lookup(p, path, false)
	if err != nil {
		return nil, err
	}
	if in.mode != ModeDir {
		return nil, ErrNotDir
	}
	return fs.readDirInode(p, in)
}

// Sync flushes dirty metadata (bitmap and inode-table blocks, indirect
// extent blocks) to disk.
func (fs *FS) Sync(p *sim.Proc) error {
	p.Acquire(fs.mu)
	defer p.Release(fs.mu)
	return fs.syncLocked(p)
}

func (fs *FS) syncLocked(p *sim.Proc) error {
	// Flush in sorted block order: Go map iteration order is random per
	// process, and under injected write faults the iteration order decides
	// WHICH block's write fails, so replayed explorations must not depend
	// on it.
	// Indirect blocks and inode table.
	for _, blk := range sortedKeys(fs.dirtyITable) {
		buf, put := fs.staging.get(BlockSize)
		table := fs.staging.bytes(buf, BlockSize)
		for i := 0; i < InodesPerBlock; i++ {
			ino := blk*InodesPerBlock + uint32(i)
			in := &fs.inodes[ino]
			var idb []byte
			if len(in.extents) > InlineExtents {
				if in.indirect == 0 {
					return fmt.Errorf("solrosfs: inode %d spilled without indirect block", ino)
				}
				idbBuf, putIDB := fs.staging.get(BlockSize)
				idb = fs.staging.bytes(idbBuf, BlockSize)
				in.encodeInto(table[i*InodeSize:(i+1)*InodeSize], idb)
				if err := fs.writeBlocks(p, int64(in.indirect), 1, idbBuf); err != nil {
					putIDB()
					put()
					return err
				}
				putIDB()
			} else {
				in.encodeInto(table[i*InodeSize:(i+1)*InodeSize], nil)
			}
			in.dirty = false
		}
		if err := fs.writeBlocks(p, int64(fs.sb.ITableStart+blk), 1, buf); err != nil {
			put()
			return err
		}
		put()
		delete(fs.dirtyITable, blk)
	}
	// Bitmap blocks.
	for _, blk := range sortedKeys(fs.dirtyBitmap) {
		buf, put := fs.staging.get(BlockSize)
		copy(fs.staging.bytes(buf, BlockSize), fs.bitmap[int64(blk)*BlockSize:int64(blk+1)*BlockSize])
		if err := fs.writeBlocks(p, int64(fs.sb.BitmapStart+blk), 1, buf); err != nil {
			put()
			return err
		}
		put()
		delete(fs.dirtyBitmap, blk)
	}
	return nil
}

func sortedKeys(m map[uint32]bool) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// MetaClean reports whether the file system is metadata-quiescent: no
// dirty bitmap or inode-table blocks awaiting Sync and no mutation in
// progress. Only in this state must a device snapshot pass a FULL fsck;
// between Syncs the write-back design makes Repairable-class findings
// legal (see ProblemKind).
func (fs *FS) MetaClean() bool {
	return !fs.mu.Held() && len(fs.dirtyBitmap) == 0 && len(fs.dirtyITable) == 0
}

// InodeExtents reports the in-memory (possibly not yet synced) extent list
// and size for inode ino, or ok=false if the inode is free or out of
// range. Oracles use it to map cached file pages back to disk blocks.
func (fs *FS) InodeExtents(ino uint32) (extents []Extent, size int64, ok bool) {
	if uint64(ino) >= uint64(len(fs.inodes)) {
		return nil, 0, false
	}
	in := &fs.inodes[ino]
	if in.mode == ModeFree {
		return nil, 0, false
	}
	return append([]Extent(nil), in.extents...), in.size, true
}

// stagingPool hands out scratch regions of one memory domain for staging
// metadata and buffered data between the FS and the device.
type stagingPool struct {
	mem  *pcie.Memory
	free map[int][]int64 // size class (log2) -> offsets
}

func newStagingPool(mem *pcie.Memory) *stagingPool {
	return &stagingPool{mem: mem, free: make(map[int][]int64)}
}

func classOf(n int64) int {
	c := 0
	for s := int64(1); s < n; s <<= 1 {
		c++
	}
	if c < 12 { // minimum 4 KB
		c = 12
	}
	return c
}

// get returns a staging Loc of at least n bytes and a release func.
func (sp *stagingPool) get(n int64) (pcie.Loc, func()) {
	c := classOf(n)
	var off int64
	if lst := sp.free[c]; len(lst) > 0 {
		off = lst[len(lst)-1]
		sp.free[c] = lst[:len(lst)-1]
	} else {
		off = sp.mem.Alloc(1 << c)
	}
	loc := pcie.Loc{Dev: sp.mem.Dev, Off: off}
	return loc, func() { sp.free[c] = append(sp.free[c], off) }
}

// bytes exposes the first n bytes of a staging Loc.
func (sp *stagingPool) bytes(l pcie.Loc, n int64) []byte {
	return sp.mem.Slice(l.Off, n)
}
