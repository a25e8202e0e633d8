package main

import (
	"encoding/binary"
	"fmt"
	"hash"

	"solros/internal/apps/kvstore"
	"solros/internal/core"
	"solros/internal/sim"
	"solros/internal/telemetry"
	"solros/internal/workload"
)

// The serving workloads: an open loop of Zipf-skewed GETs and PUTs from two
// tenants against a two-shard store, one shard and server per phi, reached
// through the host's TCP proxy with content-based balancing — the shape of
// fig-serve, with a store larger than the shared cache.
const (
	kvPort          = 7400
	kvValBytes      = 256
	kvConnsPerShard = 4
	kvTimeout       = 5000 * sim.Microsecond // client time-out: later replies count as late
	kvServeRate     = 40e3                   // ~80 % of saturation
	kvOverloadRate  = 100e3                  // ~2x saturation

	// The knee is searched by bisection over offered rates, Kops/s.
	kneeLo, kneeHi = 8, 256
	kneeProbeOps   = 20000
	kneeP99Limit   = 1000 * sim.Microsecond
)

// kvTenants: a read-mostly frontend with 3/4 of the load and an update-heavy
// batch tenant with the rest. 16 384 keys x ~280 B of record make a ~4.5 MB
// live log against the 1 MB cache, so the Zipf head hits and the tail goes
// to NVMe.
var kvTenants = []workload.Tenant{
	{Name: "frontend", Mix: workload.MixFor('B'), Keys: 12288, Share: 3},
	{Name: "batch", Mix: workload.MixFor('A'), Keys: 4096, Share: 1},
}

// kvInputs is an op stream and its arrival schedule, segment after segment.
type kvInputs struct {
	seed int64
	ops  []workload.Op
	gaps []int64 // ns between scheduled arrivals
}

func prepareKV(rate float64) func(seed int64, ops, n int, quick bool) any {
	return func(seed int64, ops, n int, _ bool) any {
		return &kvInputs{
			seed: seed,
			ops:  workload.NewMultiGenerator(seed, kvTenants).Ops(n * ops),
			gaps: workload.Arrivals(seed+1, rate, n*ops),
		}
	}
}

func (in *kvInputs) checksum(h hash.Hash64) {
	for i, op := range in.ops {
		addUint64(h, uint64(op.Kind)<<56|uint64(op.Tenant)<<48|uint64(op.Key))
		addUint64(h, uint64(in.gaps[i]))
	}
}

// kvKeyID flattens (tenant, key) into an index of the model.
func kvKeyID(tenant, key int) int {
	id := key
	for t := 0; t < tenant; t++ {
		id += kvTenants[t].Keys
	}
	return id
}

// kvValue fills dst with the value of version ver of a key: the version,
// then bytes that depend on key and version, so a GET can be checked without
// keeping every value.
func kvValue(dst []byte, id int, ver uint32) {
	binary.LittleEndian.PutUint32(dst, ver)
	x := uint64(id+1)*0x9E3779B97F4A7C15 ^ uint64(ver+1)*0xBF58476D1CE4E5B9
	for i := 4; i < len(dst); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = byte(x)
	}
}

// kvModel is the model map GETs are checked against. Requests of one shard
// travel on four connections and the server takes them in the order they
// reach it, so a GET may see any PUT that overlapped it, and of two
// overlapping PUTs either may land last: per key, issued is the newest
// version handed to a connection and floor the oldest version that can
// still be current, which advances only when no PUT of the key is in flight.
type kvModel struct {
	issued, floor, groupMin []uint32
	inflight                []uint16
}

func newKVModel() *kvModel {
	n := kvKeyID(len(kvTenants), 0)
	return &kvModel{
		issued: make([]uint32, n), floor: make([]uint32, n), groupMin: make([]uint32, n),
		inflight: make([]uint16, n),
	}
}

func (km *kvModel) putStart(id int) uint32 {
	km.issued[id]++
	if km.inflight[id] == 0 {
		km.groupMin[id] = km.issued[id]
	}
	km.inflight[id]++
	return km.issued[id]
}

func (km *kvModel) putDone(id int) {
	km.inflight[id]--
	if km.inflight[id] == 0 {
		km.floor[id] = km.groupMin[id]
	}
}

// check reports whether val is a version of key id between lo, the floor
// when the GET was sent, and the newest version issued by now.
func (km *kvModel) check(id int, lo uint32, val, scratch []byte) bool {
	if len(val) != kvValBytes {
		return false
	}
	ver := binary.LittleEndian.Uint32(val)
	if ver < lo || ver > km.issued[id] {
		return false
	}
	kvValue(scratch, id, ver)
	return string(val) == string(scratch)
}

// kvOp is one dispatched request waiting on its shard's arrival queue.
type kvOp struct {
	idx     int
	id      int
	key     string
	write   bool
	arrival sim.Time
}

// kvServe is the body of both serving workloads; the offered rate is in the
// inputs.
func kvServe(r *rep, p *sim.Proc, m *core.Machine) {
	in := r.in.(*kvInputs)
	ops, gaps := in.ops[r.seg*r.ops:][:r.ops], in.gaps[r.seg*r.ops:][:r.ops]
	phis := len(m.Phis)
	sink := m.Telemetry() // nil unless this is the traced repetition
	m.TCPProxy.Balance = kvstore.Balancer()

	// One shard and one server per phi.
	r.shards = make([]*kvstore.Shard, phis)
	serversDone := sim.NewWaitGroup("kv-servers")
	for i, phi := range m.Phis {
		if err := phi.Net.Listen(p, kvPort); err != nil {
			panic(err)
		}
		r.shards[i] = kvstore.NewShard(m, i, kvstore.Options{})
		if err := r.shards[i].Open(p); err != nil {
			panic(err)
		}
		sv := kvstore.NewServer(r.shards[i], phi.Net, kvPort)
		serversDone.Add(1)
		p.Spawn(fmt.Sprintf("kv-server-%d", i), func(sp *sim.Proc) {
			defer sp.DoneWG(serversDone)
			if err := sv.Run(sp); err != nil {
				panic(err)
			}
		})
	}

	// Preload version 0 of every key, one shard after the other: two logs
	// growing alternately fragment into one extent per block and run into
	// solrosfs's extent cap (see README, known limits).
	mk := r.tr.start(p)
	model := newKVModel()
	val := make([]byte, kvValBytes)
	bindKey := make([]string, phis)
	for sh := 0; sh < phis; sh++ {
		for t, tn := range kvTenants {
			for k := 0; k < tn.Keys; k++ {
				key := workload.KeyName(t, k)
				if kvstore.OwnerShard(key, phis) != sh {
					continue
				}
				kvValue(val, kvKeyID(t, k), 0)
				if err := r.shards[sh].Put(p, key, val); err != nil {
					panic(err)
				}
				bindKey[sh] = key
			}
		}
	}
	r.tr.finish(p, "kv_preload", -1, mk)

	// Pooled client connections, each bound to its shard by the key of its
	// first request.
	clients := make([]*kvstore.Client, phis*kvConnsPerShard)
	closers := make([]func(*sim.Proc), len(clients))
	mk = r.tr.start(p)
	for i := range clients {
		conn, err := m.ClientStack.Dial(p, m.HostStack, kvPort)
		if err != nil {
			panic(err)
		}
		side := conn.Side(m.ClientStack)
		clients[i] = kvstore.NewClient(side)
		clients[i].EnableTracing(sink)
		closers[i] = side.Close
		if _, _, err := clients[i].Get(p, bindKey[i/kvConnsPerShard]); err != nil {
			panic(err)
		}
	}
	r.tr.finish(p, "kv_dial_bind", -1, mk)

	queues := make([][]kvOp, phis)
	conds := make([]*sim.Cond, phis)
	for i := range conds {
		conds[i] = sim.NewCond(fmt.Sprintf("kv-q-%d", i))
	}
	dispatchDone := false

	r.begin(p, m)
	// The open loop: arrivals follow the schedule however far behind
	// service is.
	p.Spawn("kv-dispatch", func(dp *sim.Proc) {
		t := dp.Now()
		for i, op := range ops {
			t += sim.Time(gaps[i])
			dp.AdvanceTo(t)
			if late := dp.Now() - t; late > r.genLate {
				r.genLate = late
			}
			key := workload.KeyName(op.Tenant, op.Key)
			sh := kvstore.OwnerShard(key, phis)
			queues[sh] = append(queues[sh], kvOp{
				idx: i, id: kvKeyID(op.Tenant, op.Key), key: key,
				write: op.Kind != workload.OpRead, arrival: t,
			})
			dp.Signal(conds[sh])
		}
		dispatchDone = true
		for _, c := range conds {
			dp.Broadcast(c)
		}
	})
	core.Parallel(p, len(clients), "kv-worker", func(i int, wp *sim.Proc) {
		sh := i / kvConnsPerShard
		cl := clients[i]
		put := make([]byte, kvValBytes)
		scratch := make([]byte, kvValBytes)
		for {
			if len(queues[sh]) == 0 {
				if dispatchDone {
					return
				}
				wp.Wait(conds[sh])
				continue
			}
			op := queues[sh][0]
			queues[sh] = queues[sh][1:]
			r.tr.finish(wp, "kv_queue_wait", op.idx, r.tr.startAt(op.arrival))
			// In the traced repetition each request is one causal tree.
			root := sink.StartCtx(wp, "workload.request", telemetry.RootCtx(uint64(in.seed), uint64(op.idx)))
			mk := r.tr.start(wp)
			if op.write {
				kvValue(put, op.id, model.putStart(op.id))
				err := cl.Put(wp, op.key, put)
				model.putDone(op.id)
				r.tr.finish(wp, "kv_put", op.idx, mk)
				if err != nil {
					r.fail("put %s: %v", op.key, err)
				}
			} else {
				lo := model.floor[op.id]
				got, found, err := cl.Get(wp, op.key)
				r.tr.finish(wp, "kv_get", op.idx, mk)
				if err != nil || !found || !model.check(op.id, lo, got, scratch) {
					r.fail("get %s: found %v, %d bytes, err %v, or not a value the model allows", op.key, found, len(got), err)
				}
			}
			root.End(wp)
			lat := wp.Now() - op.arrival
			if lat > kvTimeout {
				// The client has given up; the reply is classified, not
				// cancelled, and enters the percentiles at the time-out.
				r.late++
				r.excess += lat - kvTimeout
				lat = kvTimeout
			}
			r.lat[op.idx] = lat
		}
	})
	r.end(p, m)

	for _, c := range closers {
		c(p)
	}
	m.TCPProxy.Stop(p)
	p.WaitWG(serversDone)
	for _, sh := range r.shards {
		if err := sh.Close(p); err != nil {
			r.problem("close shard: %v", err)
		}
	}
}

// kvKnee finds the highest offered rate, to 1 Kops/s, at which the store
// keeps p99 within kneeP99Limit and completes at least 0.98 of what is
// offered, so no backlog grows. It is virtual time only, hence exact for a
// seed, and is computed once per run outside the timed repetitions.
func kvKnee(w *workloadDef, in any, quick bool) float64 {
	base := in.(*kvInputs)
	n := min(kneeProbeOps, len(base.ops))
	lo, hi := float64(kneeLo), float64(kneeHi)
	step := 1.0
	if quick {
		step = 32
	}
	for hi-lo > step {
		mid := float64(int((lo + hi) / 2))
		probe := &kvInputs{
			seed: base.seed,
			ops:  base.ops[:n],
			gaps: workload.Arrivals(base.seed+1, mid*1e3, n),
		}
		s := pool(w.runRep(probe, 0, n, nil, nil))
		if s.p99 <= kneeP99Limit && s.rateKops() >= 0.98*mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
