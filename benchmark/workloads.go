package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"

	"solros/internal/core"
)

// workloads is the benchmark's table. The op counts are sized so that a
// repetition takes 2-3 s of wall time on two cores, and then frozen.
var workloads = []workloadDef{
	{
		name: "fs_randread", ops: 100000,
		cfg:     core.Config{Phis: 1, DiskBytes: 96 << 20},
		prepare: prepareRandread, body: fsRandread,
	},
	{
		name: "fs_hot", ops: 160000,
		cfg:     core.Config{Phis: 4},
		prepare: prepareHot, body: fsHot,
	},
	{
		name: "fs_write", ops: 100000,
		cfg:     core.Config{Phis: 1},
		prepare: prepareWrite, body: fsWrite,
	},
	{
		name: "kv_serve", ops: 60000, net: true,
		cfg:     core.Config{Phis: 2, CacheBytes: 1 << 20},
		prepare: prepareKV(kvServeRate), body: kvServe, knee: kvKnee,
	},
	{
		name: "kv_overload", ops: 60000, net: true,
		cfg:     core.Config{Phis: 2, CacheBytes: 1 << 20},
		prepare: prepareKV(kvOverloadRate), body: kvServe,
	},
}

// addUint64 feeds v to a checksum.
func addUint64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// inputChecksum digests what the seed generated — file contents, offsets,
// op stream, arrival gaps — so that two runs can be seen to have had the
// same inputs, and two seeds different ones.
func inputChecksum(in any) uint64 {
	h := fnv.New64a()
	in.(interface{ checksum(hash.Hash64) }).checksum(h)
	return h.Sum64()
}
