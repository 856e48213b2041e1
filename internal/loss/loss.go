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
	"sync/atomic"

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

// ConcurrentPlanner is implemented by adversaries that plan a round as a
// loss matrix the engine reads by index, and whose plan is safe to read
// and fill from several goroutines. PlanRows prepares round r and returns
// a fill function plus the matrix:
//
//   - lost[i*len(senders)+j] reports that procs[i] misses senders[j]'s
//     broadcast. Entries where procs[i] is senders[j] are never read: a
//     broadcaster always hears itself. A nil lost means nothing is lost.
//   - fill(lo, hi) completes the rows of receivers procs[lo:hi]. Distinct
//     ranges touch disjoint state, so the engine runs fill concurrently over
//     a partition of [0, len(procs)) and reads lost only after every range
//     completes. A nil fill means the matrix is already complete: constant
//     plans, ECF short-circuit rounds, and v1 (sequential-schedule)
//     adversaries, whose draws are order-dependent and therefore made inside
//     PlanRows itself.
//
// PlanRows draws exactly what Plan draws, in the same order: filling every
// row yields the plan Plan would have produced. The matrix is valid until
// the next PlanRows or Plan call. Plan-only adversaries (Partition, Func)
// keep sequential delivery, where the engine consults their DeliveryFunc.
type ConcurrentPlanner interface {
	Adversary
	PlanRows(r int, senders, procs []model.ProcessID) (fill func(lo, hi int), lost []bool)
}

// ConcurrentSafe reports whether a plans as rows that may be filled and
// read concurrently: a is a ConcurrentPlanner, and an ECF wrapper also
// needs a safe (or nil) base.
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

// deliverAll is the everything-arrives plan.
func deliverAll(model.ProcessID, model.ProcessID) bool { return true }

// deliverNone is the everything-lost plan (self-delivery still applies).
func deliverNone(model.ProcessID, model.ProcessID) bool { return false }

// allLost holds the all-true loss matrix the constant everything-lost
// plans share. It only grows, and a published slice is never written
// again, so runs on other goroutines may keep reading an older one while
// a larger one replaces it.
var allLost atomic.Pointer[[]bool]

// lostAll returns an n-entry loss matrix in which everything is lost.
func lostAll(n int) []bool {
	if p := allLost.Load(); p != nil && len(*p) >= n {
		return (*p)[:n]
	}
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	allLost.Store(&m)
	return m
}

// None is the lossless channel: every broadcast reaches every process.
type None struct{}

// Plan implements Adversary.
func (None) Plan(int, []model.ProcessID, []model.ProcessID) DeliveryFunc { return deliverAll }

// PlanRows implements ConcurrentPlanner: nothing is lost.
func (None) PlanRows(int, []model.ProcessID, []model.ProcessID) (func(lo, hi int), []bool) {
	return nil, nil
}

// Drop loses every message except self-deliveries: the "never-ending
// collisions" environment of Section 7.4 and Theorem 9, where collision
// notifications are the only channel.
type Drop struct{}

// Plan implements Adversary.
func (Drop) Plan(int, []model.ProcessID, []model.ProcessID) DeliveryFunc { return deliverNone }

// PlanRows implements ConcurrentPlanner: every cross delivery is lost.
func (Drop) PlanRows(_ int, senders, procs []model.ProcessID) (func(lo, hi int), []bool) {
	return nil, lostAll(len(procs) * len(senders))
}

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

// PlanRows implements ConcurrentPlanner.
func (Alpha) PlanRows(_ int, senders, procs []model.ProcessID) (func(lo, hi int), []bool) {
	if len(senders) == 1 {
		return nil, nil
	}
	return nil, lostAll(len(procs) * len(senders))
}

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

// PlanRows implements ConcurrentPlanner by forwarding to the base
// adversary, which must itself be a ConcurrentPlanner (ConcurrentSafe(e)
// holds). Collision-free rounds short-circuit to the lossless plan without
// consulting the base, so — exactly as under Plan — they consume no draws.
func (e ECF) PlanRows(r int, senders, procs []model.ProcessID) (func(lo, hi int), []bool) {
	if (r >= e.From && len(senders) == 1) || e.Base == nil {
		return nil, nil
	}
	return e.Base.(ConcurrentPlanner).PlanRows(r, senders, procs)
}

// denseIndex maps process IDs to plan-row offsets in O(1) when the process
// set is a contiguous ID range (the common case: sim materializes processes
// 1..n). The DeliveryFuncs that Plan returns use it for each query;
// non-contiguous sets and foreign IDs fall back to binary search with the
// exact same semantics.
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
// ranges concurrently via PlanRows.
//
// The adversary reuses one loss matrix between rounds — PlanRows hands it
// to the engine as is — and Plan reuses one DeliveryFunc over it, so
// steady-state rounds allocate nothing and what a round returns is valid
// only until the next round is planned.
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
	lost    []bool // len(procs)×len(senders) loss matrix, row-major by receiver
	procs   []model.ProcessID
	senders []model.ProcessID
	dense   denseIndex
	fn      DeliveryFunc     // cached closure over the matrix, for Plan
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

// Plan implements Adversary.
func (a *Probabilistic) Plan(r int, senders, procs []model.ProcessID) DeliveryFunc {
	if fill, _ := a.PlanRows(r, senders, procs); fill != nil {
		fill(0, len(procs))
	}
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
	return a.fn
}

// PlanRows implements ConcurrentPlanner. Under V2 it returns the
// counter-stream row filler; under v1 the order-dependent Rng draws happen
// here, sequentially, and the returned fill is nil.
func (a *Probabilistic) PlanRows(r int, senders, procs []model.ProcessID) (func(lo, hi int), []bool) {
	need := len(procs) * len(senders)
	if cap(a.lost) < need {
		a.lost = make([]bool, need)
	}
	a.lost = a.lost[:need]
	a.round = r
	a.procs = procs
	a.senders = senders
	if seedstream.Normalize(a.Schedule) == seedstream.V2 {
		if a.fill == nil {
			a.fill = a.fillV2
		}
		return a.fill, a.lost
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
	return nil, a.lost
}

// fillV2 draws the v2 rows of receivers procs[lo:hi].
func (a *Probabilistic) fillV2(lo, hi int) {
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
			// Draw j of the receiver's stream, self-pairs included in the
			// indexing: the row is a pure function of (key, j).
			row[j] = seedstream.Float64At(key, j) < a.P
		}
	}
}

// Capture models the capture effect (Section 1.1, [71]): when two or more
// processes broadcast simultaneously, each receiver either locks onto
// exactly one transmission (probability 1−PNone, uniformly chosen per
// receiver — so different receivers may capture different senders) or
// receives nothing. Lone broadcasts are delivered with probability
// 1−PLoneLoss, modeling outside interference.
//
// Like Probabilistic, the adversary reuses its scratch between rounds — the
// index of each receiver's captured sender, the loss matrix PlanRows
// writes from it, and the DeliveryFunc Plan returns — so steady-state
// rounds allocate nothing and what a round returns is valid only until the
// next round is planned. Under the v1 schedule, draws come from Rng in
// deterministic order (one Float64 per receiver, plus an Intn sender pick
// for capturing receivers in a collision, lone senders skipping their own
// draw) — identical to every earlier version. Under seedstream.V2 each
// receiver draws from its own (Seed, round, receiver) counter stream, so
// PlanRows fills receiver ranges concurrently.
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
	lost    []bool  // len(procs)×len(senders) loss matrix written from capt
	procs   []model.ProcessID
	senders []model.ProcessID
	dense   denseIndex
	fn      DeliveryFunc     // cached closure over capt, for Plan
	fill    func(lo, hi int) // cached V2 filler
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

// Plan implements Adversary.
func (a *Capture) Plan(r int, senders, procs []model.ProcessID) DeliveryFunc {
	if len(senders) == 0 {
		return deliverNone
	}
	if fill, _ := a.PlanRows(r, senders, procs); fill != nil {
		fill(0, len(procs))
	}
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
	return a.fn
}

// PlanRows implements ConcurrentPlanner. Under V2 it returns the
// counter-stream filler, which draws and writes each receiver's row; under
// v1 the order-dependent Rng draws and the rows are done here,
// sequentially, and the returned fill is nil.
func (a *Capture) PlanRows(r int, senders, procs []model.ProcessID) (func(lo, hi int), []bool) {
	if len(senders) == 0 {
		return nil, nil
	}
	if cap(a.capt) < len(procs) {
		a.capt = make([]int32, len(procs))
	}
	a.capt = a.capt[:len(procs)]
	need := len(procs) * len(senders)
	if cap(a.lost) < need {
		a.lost = make([]bool, need)
	}
	a.lost = a.lost[:need]
	a.round = r
	a.procs = procs
	a.senders = senders
	a.lone = len(senders) == 1
	if seedstream.Normalize(a.Schedule) == seedstream.V2 {
		if a.fill == nil {
			a.fill = a.fillV2
		}
		return a.fill, a.lost
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
	a.writeRows(0, len(procs))
	return nil, a.lost
}

// fillV2 draws the v2 captures of receivers procs[lo:hi] and writes their
// rows.
func (a *Capture) fillV2(lo, hi int) {
	if a.lone {
		for i := lo; i < hi; i++ {
			rcv := a.procs[i]
			a.capt[i] = 0 // the lone sender
			if rcv != a.senders[0] &&
				seedstream.Float64At(seedstream.Key(a.Seed, a.round, uint64(rcv)), 0) < a.PLoneLoss {
				a.capt[i] = -1
			}
		}
	} else {
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
	a.writeRows(lo, hi)
}

// writeRows writes the loss rows of receivers procs[lo:hi] from their
// captures: every sender but the captured one is lost.
func (a *Capture) writeRows(lo, hi int) {
	k := len(a.senders)
	for i := lo; i < hi; i++ {
		c := a.capt[i]
		row := a.lost[i*k : (i+1)*k]
		for j := range row {
			row[j] = int32(j) != c
		}
	}
}

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
