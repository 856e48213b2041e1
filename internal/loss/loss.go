// Package loss implements the message-loss adversaries of the paper's
// communication model (Section 3.3). The model places no constraint on loss
// except self-delivery (a broadcaster hears itself, Definition 11
// constraint 5) and — when assumed — eventual collision freedom
// (Property 1). Everything else is adversary's choice, and the paper's
// proofs exploit specific adversaries; each of those is implemented here,
// alongside the stochastic models that match the empirical motivation
// (20–50% loss, capture effect).
package loss

import (
	"math/rand"
	"slices"

	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
)

// DeliveryFunc reports whether receiver hears sender's broadcast in the
// planned round. The engine never asks about self-delivery: a broadcaster
// always receives its own message.
type DeliveryFunc func(receiver, sender model.ProcessID) bool

// Adversary plans message delivery one round at a time. Plan is called once
// per round with the sorted sender set and the sorted full process set, so
// implementations drawing randomness observe a deterministic call order.
type Adversary interface {
	Plan(r int, senders, procs []model.ProcessID) DeliveryFunc
}

// ConcurrentPlanner marks adversaries whose planned DeliveryFunc is safe for
// concurrent calls: Plan itself is still invoked sequentially once per
// round, but the returned func must be a pure read of the plan (no lazy
// draws, no memoization writes). The engine's parallel delivery core only
// engages for adversaries carrying this marker; everything else (notably
// bespoke Func closures) silently falls back to the sequential path.
type ConcurrentPlanner interface {
	Adversary
	// ConcurrentPlan is the marker method; it is never called.
	ConcurrentPlan()
}

// ConcurrentSafe reports whether a's delivery funcs may be consulted
// concurrently: a carries the ConcurrentPlanner marker, or is an ECF
// wrapper around a safe (or nil) base.
func ConcurrentSafe(a Adversary) bool {
	switch x := a.(type) {
	case ECF:
		if x.Base == nil {
			return true
		}
		return ConcurrentSafe(x.Base)
	default:
		_, ok := a.(ConcurrentPlanner)
		return ok
	}
}

// ShardedPlanner is implemented by adversaries whose per-round plan can be
// filled shard-parallel. PlanShards prepares the round and returns a fill
// function plus the DeliveryFunc reading the finished plan:
//
//   - fill(lo, hi) draws the loss rows of receivers procs[lo:hi]. Distinct
//     shards touch disjoint state, so the engine runs fill concurrently
//     over a partition of [0, len(procs)) — alongside the delivery shards'
//     other per-receiver work — and consult fn only after every shard
//     completes.
//   - A nil fill means the plan is already complete: constant plans, ECF
//     short-circuit rounds, and v1 (sequential-schedule) adversaries, whose
//     draws are order-dependent and therefore performed inside PlanShards
//     itself.
//
// PlanShards must be equivalent to Plan: calling fill(0, len(procs)) inline
// yields the same plan Plan would have produced. The engine consults it
// only for adversaries that already pass the ConcurrentSafe gate; it is
// deliberately not bundled with the ConcurrentPlanner marker so that
// wrappers like ECF can forward sharding without asserting safety.
type ShardedPlanner interface {
	Adversary
	PlanShards(r int, senders, procs []model.ProcessID) (fill func(lo, hi int), fn DeliveryFunc)
}

// deliverAll is the everything-arrives plan.
func deliverAll(model.ProcessID, model.ProcessID) bool { return true }

// deliverNone is the everything-lost plan (self-delivery still applies).
func deliverNone(model.ProcessID, model.ProcessID) bool { return false }

// None is the lossless channel: every broadcast reaches every process.
type None struct{}

// Plan implements Adversary.
func (None) Plan(int, []model.ProcessID, []model.ProcessID) DeliveryFunc { return deliverAll }

// ConcurrentPlan marks the constant plan as concurrency-safe.
func (None) ConcurrentPlan() {}

// Drop loses every message except self-deliveries: the "never-ending
// collisions" environment of Section 7.4 and Theorem 9, where collision
// notifications are the only channel.
type Drop struct{}

// Plan implements Adversary.
func (Drop) Plan(int, []model.ProcessID, []model.ProcessID) DeliveryFunc { return deliverNone }

// ConcurrentPlan marks the constant plan as concurrency-safe.
func (Drop) ConcurrentPlan() {}

// Alpha is the loss rule of the paper's alpha executions (Definition 24):
// if a single process broadcasts, everyone receives it; if more than one
// broadcasts, every cross-delivery is lost (broadcasters keep their own
// message).
type Alpha struct{}

// Plan implements Adversary.
func (Alpha) Plan(_ int, senders, _ []model.ProcessID) DeliveryFunc {
	if len(senders) == 1 {
		return deliverAll
	}
	return deliverNone
}

// ConcurrentPlan marks the constant plan as concurrency-safe.
func (Alpha) ConcurrentPlan() {}

// ECF wraps a base adversary with eventual collision freedom (Property 1):
// from round From on, a lone broadcaster is heard by every process. Other
// rounds defer to the base adversary.
type ECF struct {
	Base Adversary
	From int
}

// Plan implements Adversary.
func (e ECF) Plan(r int, senders, procs []model.ProcessID) DeliveryFunc {
	if r >= e.From && len(senders) == 1 {
		return deliverAll
	}
	base := e.Base
	if base == nil {
		base = None{}
	}
	return base.Plan(r, senders, procs)
}

// PlanShards implements ShardedPlanner by forwarding to the base adversary.
// Collision-free rounds short-circuit to the constant plan without
// consulting the base, so — exactly as under Plan — they consume no draws.
func (e ECF) PlanShards(r int, senders, procs []model.ProcessID) (func(lo, hi int), DeliveryFunc) {
	if r >= e.From && len(senders) == 1 {
		return nil, deliverAll
	}
	base := e.Base
	if base == nil {
		base = None{}
	}
	if sp, ok := base.(ShardedPlanner); ok {
		return sp.PlanShards(r, senders, procs)
	}
	return nil, base.Plan(r, senders, procs)
}

// denseIndex maps process IDs to plan-row offsets in O(1) when the process
// set is a contiguous ID range (the common case: sim materializes processes
// 1..n). It replaces the per-delivery binary-search pair on the hottest
// path; non-contiguous sets and foreign IDs fall back to binary search with
// the exact same semantics.
type denseIndex struct {
	on   bool
	base model.ProcessID // procs[0] when on
	span int             // len(procs) when on
	sidx []int32         // sender index by ID offset, -1 = not a sender
}

// build prepares the index for this round's (senders, procs); it degrades
// to the binary-search fallback (on=false) when procs are non-contiguous or
// a sender falls outside their range.
func (d *denseIndex) build(senders, procs []model.ProcessID) {
	d.on = false
	n := len(procs)
	if n == 0 || int(procs[n-1])-int(procs[0]) != n-1 {
		return
	}
	if cap(d.sidx) < n {
		d.sidx = make([]int32, n)
	}
	d.sidx = d.sidx[:n]
	for i := range d.sidx {
		d.sidx[i] = -1
	}
	for j, snd := range senders {
		off := int(snd) - int(procs[0])
		if off < 0 || off >= n {
			return
		}
		d.sidx[off] = int32(j)
	}
	d.base = procs[0]
	d.span = n
	d.on = true
}

// receiver returns rcv's row index in procs.
func (d *denseIndex) receiver(rcv model.ProcessID, procs []model.ProcessID) (int, bool) {
	if d.on {
		off := int(rcv) - int(d.base)
		if off < 0 || off >= d.span {
			return 0, false
		}
		return off, true
	}
	return slices.BinarySearch(procs, rcv)
}

// sender returns snd's column index in senders.
func (d *denseIndex) sender(snd model.ProcessID, senders []model.ProcessID) (int, bool) {
	if d.on {
		off := int(snd) - int(d.base)
		if off < 0 || off >= d.span || d.sidx[off] < 0 {
			return 0, false
		}
		return int(d.sidx[off]), true
	}
	return slices.BinarySearch(senders, snd)
}

// Probabilistic loses each (receiver, sender) delivery independently with
// probability P, matching the empirical 20–50% loss rates cited in
// Section 1.1.
//
// Under the default v1 seed schedule, draws come from Rng in deterministic
// iteration order (receivers outer, senders inner, self-pairs skipped) —
// identical to every earlier version, so equal seeds keep producing
// identical executions. Under seedstream.V2 the adversary instead reads the
// counter stream keyed by (Seed, round, receiver): each receiver's row is
// an independent, order-free sequence, so shards fill disjoint receiver
// ranges concurrently via PlanShards.
//
// The adversary reuses an internal loss matrix and its DeliveryFunc between
// rounds — steady-state Plan calls allocate nothing — so the func returned
// by Plan is valid only until the next Plan call.
type Probabilistic struct {
	P float64
	// Rng is the v1 draw source, unused under V2. NewProbabilistic sets it
	// to seedstream.NewV1(seed): math/rand's stream, seeded on first use.
	Rng *rand.Rand

	// Schedule selects the seed schedule (seedstream.V1 when zero); Seed
	// keys the V2 counter streams and is unused under v1.
	Schedule int
	Seed     int64

	round   int
	lost    []bool // len(procs)×len(senders) scratch, row-major by receiver
	procs   []model.ProcessID
	senders []model.ProcessID
	dense   denseIndex
	fn      DeliveryFunc     // cached closure over the scratch state
	fill    func(lo, hi int) // cached V2 row filler
}

// NewProbabilistic returns a probabilistic adversary with its own seeded
// generator (seed schedule v1).
func NewProbabilistic(p float64, seed int64) *Probabilistic {
	return &Probabilistic{P: p, Rng: seedstream.NewV1(seed)}
}

// NewProbabilisticV2 returns a probabilistic adversary drawing from the
// seed-schedule-v2 counter streams keyed by seed.
func NewProbabilisticV2(p float64, seed int64) *Probabilistic {
	return &Probabilistic{P: p, Seed: seed, Schedule: seedstream.V2}
}

// begin sizes the round's scratch and caches the plan closures.
func (a *Probabilistic) begin(r int, senders, procs []model.ProcessID) {
	need := len(procs) * len(senders)
	if cap(a.lost) < need {
		a.lost = make([]bool, need)
	}
	a.lost = a.lost[:need]
	a.round = r
	a.procs = procs
	a.senders = senders
	a.dense.build(senders, procs)
	if a.fn == nil {
		a.fn = func(rcv, snd model.ProcessID) bool {
			i, ok1 := a.dense.receiver(rcv, a.procs)
			j, ok2 := a.dense.sender(snd, a.senders)
			if !ok1 || !ok2 {
				return true
			}
			return !a.lost[i*len(a.senders)+j]
		}
	}
	if a.fill == nil {
		a.fill = func(lo, hi int) {
			k := len(a.senders)
			for i := lo; i < hi; i++ {
				rcv := a.procs[i]
				row := a.lost[i*k : (i+1)*k]
				key := seedstream.Key(a.Seed, a.round, uint64(rcv))
				for j, snd := range a.senders {
					if rcv == snd {
						row[j] = false
						continue
					}
					// Draw j of the receiver's stream, self-pairs included in
					// the indexing: the row is a pure function of (key, j).
					row[j] = seedstream.Float64At(key, j) < a.P
				}
			}
		}
	}
}

// Plan implements Adversary.
func (a *Probabilistic) Plan(r int, senders, procs []model.ProcessID) DeliveryFunc {
	fill, fn := a.PlanShards(r, senders, procs)
	if fill != nil {
		fill(0, len(procs))
	}
	return fn
}

// PlanShards implements ShardedPlanner. Under V2 it returns the
// counter-stream row filler; under v1 the order-dependent Rng draws happen
// here, sequentially, and the returned fill is nil.
func (a *Probabilistic) PlanShards(r int, senders, procs []model.ProcessID) (func(lo, hi int), DeliveryFunc) {
	a.begin(r, senders, procs)
	if seedstream.Normalize(a.Schedule) == seedstream.V2 {
		return a.fill, a.fn
	}
	k := len(senders)
	for i, rcv := range procs {
		row := a.lost[i*k : (i+1)*k]
		for j, snd := range senders {
			if rcv == snd {
				row[j] = false
				continue
			}
			row[j] = a.Rng.Float64() < a.P
		}
	}
	return nil, a.fn
}

// ConcurrentPlan marks the delivery func — a pure read of the loss matrix
// drawn during Plan — as concurrency-safe.
func (*Probabilistic) ConcurrentPlan() {}

// Capture models the capture effect (Section 1.1, [71]): when two or more
// processes broadcast simultaneously, each receiver either locks onto
// exactly one transmission (probability 1−PNone, uniformly chosen per
// receiver — so different receivers may capture different senders) or
// receives nothing. Lone broadcasts are delivered with probability
// 1−PLoneLoss, modeling outside interference.
//
// Like Probabilistic, the adversary keeps a dense per-receiver scratch (the
// index of the captured sender) and a cached DeliveryFunc between rounds,
// so steady-state Plan calls allocate nothing; the func returned by Plan is
// valid only until the next Plan call. Under the v1 schedule, draws come
// from Rng in deterministic order (one Float64 per receiver, plus an Intn
// sender pick for capturing receivers in a collision, lone senders skipping
// their own draw) — identical to every earlier version. Under seedstream.V2
// each receiver draws from its own (Seed, round, receiver) counter stream,
// so PlanShards fills receiver ranges concurrently.
type Capture struct {
	PNone     float64 // probability a receiver captures nothing in a collision
	PLoneLoss float64 // probability a lone broadcast is lost at a receiver
	// Rng is the v1 draw source, unused under V2. NewCapture sets it to
	// seedstream.NewV1(seed): math/rand's stream, seeded on first use.
	Rng *rand.Rand

	// Schedule selects the seed schedule (seedstream.V1 when zero); Seed
	// keys the V2 counter streams and is unused under v1.
	Schedule int
	Seed     int64

	round   int
	lone    bool    // this round has a single sender
	capt    []int32 // per-receiver captured sender index, -1 = nothing
	procs   []model.ProcessID
	senders []model.ProcessID
	dense   denseIndex
	fn      DeliveryFunc     // cached closure over the scratch state
	fill    func(lo, hi int) // cached V2 row filler
}

// NewCapture returns a capture-effect adversary with its own seeded
// generator (seed schedule v1).
func NewCapture(pNone, pLoneLoss float64, seed int64) *Capture {
	return &Capture{PNone: pNone, PLoneLoss: pLoneLoss, Rng: seedstream.NewV1(seed)}
}

// NewCaptureV2 returns a capture-effect adversary drawing from the
// seed-schedule-v2 counter streams keyed by seed.
func NewCaptureV2(pNone, pLoneLoss float64, seed int64) *Capture {
	return &Capture{PNone: pNone, PLoneLoss: pLoneLoss, Seed: seed, Schedule: seedstream.V2}
}

// begin sizes the round's scratch and caches the plan closures.
func (a *Capture) begin(r int, senders, procs []model.ProcessID) {
	if cap(a.capt) < len(procs) {
		a.capt = make([]int32, len(procs))
	}
	a.capt = a.capt[:len(procs)]
	a.round = r
	a.procs = procs
	a.senders = senders
	a.lone = len(senders) == 1
	a.dense.build(senders, procs)
	if a.fn == nil {
		a.fn = func(rcv, snd model.ProcessID) bool {
			i, ok := a.dense.receiver(rcv, a.procs)
			if a.lone {
				// A lone broadcast either arrives or not, regardless of the
				// queried sender (mirroring the engine, which only asks about
				// actual senders); unknown receivers are not lost.
				return !ok || a.capt[i] >= 0
			}
			j, ok2 := a.dense.sender(snd, a.senders)
			if !ok || !ok2 {
				return false
			}
			return a.capt[i] == int32(j)
		}
	}
	if a.fill == nil {
		a.fill = func(lo, hi int) {
			if a.lone {
				for i := lo; i < hi; i++ {
					rcv := a.procs[i]
					a.capt[i] = 0 // the lone sender
					if rcv != a.senders[0] &&
						seedstream.Float64At(seedstream.Key(a.Seed, a.round, uint64(rcv)), 0) < a.PLoneLoss {
						a.capt[i] = -1
					}
				}
				return
			}
			for i := lo; i < hi; i++ {
				key := seedstream.Key(a.Seed, a.round, uint64(a.procs[i]))
				if seedstream.Float64At(key, 0) < a.PNone {
					a.capt[i] = -1 // captures nothing
					continue
				}
				// Uniform sender pick from draw 1; the 64-bit modulo bias is
				// below 2^-50 for any realistic sender count.
				a.capt[i] = int32(seedstream.At(key, 1) % uint64(len(a.senders)))
			}
		}
	}
}

// Plan implements Adversary.
func (a *Capture) Plan(r int, senders, procs []model.ProcessID) DeliveryFunc {
	fill, fn := a.PlanShards(r, senders, procs)
	if fill != nil {
		fill(0, len(procs))
	}
	return fn
}

// PlanShards implements ShardedPlanner. Under V2 it returns the
// counter-stream filler; under v1 the order-dependent Rng draws happen
// here, sequentially, and the returned fill is nil.
func (a *Capture) PlanShards(r int, senders, procs []model.ProcessID) (func(lo, hi int), DeliveryFunc) {
	if len(senders) == 0 {
		return nil, deliverNone
	}
	a.begin(r, senders, procs)
	if seedstream.Normalize(a.Schedule) == seedstream.V2 {
		return a.fill, a.fn
	}
	if a.lone {
		for i, rcv := range procs {
			a.capt[i] = 0 // the lone sender
			if rcv != senders[0] && a.Rng.Float64() < a.PLoneLoss {
				a.capt[i] = -1
			}
		}
	} else {
		for i := range procs {
			if a.Rng.Float64() < a.PNone {
				a.capt[i] = -1 // captures nothing
				continue
			}
			a.capt[i] = int32(a.Rng.Intn(len(senders)))
		}
	}
	return nil, a.fn
}

// ConcurrentPlan marks the delivery func — a pure read of the capture table
// drawn during Plan — as concurrency-safe.
func (*Capture) ConcurrentPlan() {}

// Partition splits the processes into groups and loses every cross-group
// message through round Until (inclusive); afterwards the channel is
// lossless. With Until = NoRepair the partition never heals. This is the
// adversary of Theorems 4, 6, 7, and 8: two groups that cannot hear each
// other run what they believe are complete executions.
type Partition struct {
	GroupOf func(model.ProcessID) int
	Until   int
}

// NoRepair makes a Partition permanent.
const NoRepair = int(^uint(0) >> 1) // max int

// SplitAt returns a group function placing processes < pivot in group 0 and
// the rest in group 1.
func SplitAt(pivot model.ProcessID) func(model.ProcessID) int {
	return func(id model.ProcessID) int {
		if id < pivot {
			return 0
		}
		return 1
	}
}

// Plan implements Adversary.
func (p Partition) Plan(r int, _, _ []model.ProcessID) DeliveryFunc {
	if r > p.Until {
		return deliverAll
	}
	return func(rcv, snd model.ProcessID) bool {
		return p.GroupOf(rcv) == p.GroupOf(snd)
	}
}

// Func adapts a function to the Adversary interface for bespoke loss
// patterns in tests and proofs.
type Func func(r int, senders, procs []model.ProcessID) DeliveryFunc

// Plan implements Adversary.
func (f Func) Plan(r int, senders, procs []model.ProcessID) DeliveryFunc {
	return f(r, senders, procs)
}
