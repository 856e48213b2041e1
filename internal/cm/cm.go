// Package cm implements the contention managers of Section 4 of the paper:
// the wake-up service (Property 2), the leader election service
// (Property 3), the trivial NoCM manager, schedule-driven adversarial
// managers used by the lower-bound constructions (the paper's MAXLS), and
// validators that check recorded advice traces against the service
// properties.
//
// A contention manager is formally just a set of advice traces; bounds in
// the paper are stated relative to the stabilization round (rwake or rlead)
// of whichever trace an execution exhibits. The managers here expose that
// round explicitly so experiments can measure "rounds after CST" exactly as
// the theorems state them.
package cm

import (
	"fmt"
	"sort"

	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
)

// Service produces contention manager advice each round. The alive callback
// reports whether a process has crashed; implementations that model
// realistic managers use it to avoid stabilizing on a dead process (a
// manager realized by a backoff protocol would do the same, since a crashed
// process stops contending).
type Service interface {
	// Advise returns advice for every process in procs for round r.
	Advise(r int, procs []model.ProcessID, alive func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice
}

// Observer is optionally implemented by adaptive managers (such as the
// backoff substrate) that react to channel feedback. The engine calls
// Observe after each round with the number of processes that actually
// broadcast.
type Observer interface {
	Observe(r int, broadcasters int)
}

// DenseAdviser is an optional fast path for Service implementations. The
// engine's hot loop calls AdviseInto with a reusable out slice indexed like
// procs (out[i] is the advice for procs[i]), avoiding the per-round advice
// map of Advise. Implementations must write advice identical to what Advise
// would return for the same inputs; the engine falls back to Advise for
// managers that do not implement this interface.
type DenseAdviser interface {
	AdviseInto(r int, procs []model.ProcessID, alive func(model.ProcessID) bool, out []model.CMAdvice)
}

// advise is a helper building an advice map with the given active set.
func advise(procs []model.ProcessID, active map[model.ProcessID]bool) map[model.ProcessID]model.CMAdvice {
	out := make(map[model.ProcessID]model.CMAdvice, len(procs))
	for _, id := range procs {
		if active[id] {
			out[id] = model.CMActive
		} else {
			out[id] = model.CMPassive
		}
	}
	return out
}

// minAlive returns the smallest non-crashed process index, falling back to
// the smallest index if all have crashed. It asks alive only about IDs
// below the best alive ID found so far, so on the engine's sorted table a
// stabilized round costs one query plus one per crashed process ahead of
// the leader; the answer does not depend on the order of procs.
func minAlive(procs []model.ProcessID, alive func(model.ProcessID) bool) model.ProcessID {
	best, found := model.ProcessID(-1), false
	for i, id := range procs {
		switch {
		case found && id >= best:
			// Cannot improve on an alive ID: skip the query.
		case alive == nil || alive(id):
			best, found = id, true
		case !found && (i == 0 || id < best):
			// Everyone so far crashed: track the smallest index, the
			// deterministic pick when advice no longer matters.
			best = id
		}
	}
	return best
}

// NoCM is the trivial contention manager (Section 4.2): every process is
// told active in every round. Algorithm 3 runs with NoCM.
type NoCM struct{}

// Advise implements Service.
func (NoCM) Advise(_ int, procs []model.ProcessID, _ func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice {
	out := make(map[model.ProcessID]model.CMAdvice, len(procs))
	for _, id := range procs {
		out[id] = model.CMActive
	}
	return out
}

// AdviseInto implements DenseAdviser.
func (NoCM) AdviseInto(_ int, procs []model.ProcessID, _ func(model.ProcessID) bool, out []model.CMAdvice) {
	for i := range procs {
		out[i] = model.CMActive
	}
}

// PreAdvice chooses the set of active processes for rounds before a
// manager's stabilization round. The returned set may be anything: the
// wake-up property constrains only the stabilized suffix.
type PreAdvice func(r int, procs []model.ProcessID) map[model.ProcessID]bool

// PreAllActive marks every process active before stabilization — maximal
// pre-stabilization contention.
func PreAllActive(_ int, procs []model.ProcessID) map[model.ProcessID]bool {
	out := make(map[model.ProcessID]bool, len(procs))
	for _, id := range procs {
		out[id] = true
	}
	return out
}

// PreNoneActive marks every process passive before stabilization.
func PreNoneActive(_ int, _ []model.ProcessID) map[model.ProcessID]bool {
	return map[model.ProcessID]bool{}
}

// PreRandom returns a PreAdvice that marks each process active
// independently with probability p, using a deterministic seed.
func PreRandom(seed int64, p float64) PreAdvice {
	rng := seedstream.NewV1(seed)
	return func(_ int, procs []model.ProcessID) map[model.ProcessID]bool {
		out := make(map[model.ProcessID]bool, len(procs))
		for _, id := range procs {
			if rng.Float64() < p {
				out[id] = true
			}
		}
		return out
	}
}

// WakeUp is a wake-up service (Property 2): from round Stable on, exactly
// one process is told active each round. If Rotate is set the active
// process cycles through the alive processes (the property allows the
// active process to change every round); otherwise it is the minimum alive
// process. Before Stable, the Pre behavior chooses the active set
// (PreAllActive by default).
type WakeUp struct {
	Stable int
	Rotate bool
	Pre    PreAdvice
}

// Advise implements Service.
func (w WakeUp) Advise(r int, procs []model.ProcessID, alive func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice {
	if r < w.Stable {
		pre := w.Pre
		if pre == nil {
			pre = PreAllActive
		}
		return advise(procs, pre(r, procs))
	}
	return advise(procs, map[model.ProcessID]bool{w.chosen(r, procs, alive): true})
}

// chosen picks the stabilized round-r active process.
func (w WakeUp) chosen(r int, procs []model.ProcessID, alive func(model.ProcessID) bool) model.ProcessID {
	if !w.Rotate {
		return minAlive(procs, alive)
	}
	aliveProcs := make([]model.ProcessID, 0, len(procs))
	for _, id := range procs {
		if alive == nil || alive(id) {
			aliveProcs = append(aliveProcs, id)
		}
	}
	if len(aliveProcs) == 0 {
		aliveProcs = procs
	}
	sort.Slice(aliveProcs, func(i, j int) bool { return aliveProcs[i] < aliveProcs[j] })
	return aliveProcs[(r-w.Stable)%len(aliveProcs)]
}

// AdviseInto implements DenseAdviser. The default pre-stabilization
// advice (PreAllActive) is written directly, without building its map.
func (w WakeUp) AdviseInto(r int, procs []model.ProcessID, alive func(model.ProcessID) bool, out []model.CMAdvice) {
	if r < w.Stable {
		if w.Pre == nil {
			for i := range procs {
				out[i] = model.CMActive
			}
			return
		}
		active := w.Pre(r, procs)
		for i, id := range procs {
			if active[id] {
				out[i] = model.CMActive
			} else {
				out[i] = model.CMPassive
			}
		}
		return
	}
	c := w.chosen(r, procs, alive)
	for i, id := range procs {
		if id == c {
			out[i] = model.CMActive
		} else {
			out[i] = model.CMPassive
		}
	}
}

// LeaderElection is a leader election service (Property 3): from round
// Stable on, the SAME single process is told active each round. The leader
// is Leader if non-negative, else the minimum alive process at round
// Stable; if the leader later crashes the service re-stabilizes on the next
// minimum alive process (the property holds with rlead equal to the round
// after the last such crash).
type LeaderElection struct {
	Stable int
	Leader model.ProcessID // -1 (or zero-value with UseMin) selects min alive
	Pre    PreAdvice

	current model.ProcessID
	chosen  bool
}

// NewLeaderElection returns a leader election service stabilizing at the
// given round on the minimum alive process.
func NewLeaderElection(stable int) *LeaderElection {
	return &LeaderElection{Stable: stable, Leader: -1}
}

// Advise implements Service.
func (l *LeaderElection) Advise(r int, procs []model.ProcessID, alive func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice {
	if r < l.Stable {
		pre := l.Pre
		if pre == nil {
			pre = PreAllActive
		}
		return advise(procs, pre(r, procs))
	}
	if !l.chosen {
		if l.Leader >= 0 {
			l.current = l.Leader
		} else {
			l.current = minAlive(procs, alive)
		}
		l.chosen = true
	}
	if alive != nil && !alive(l.current) {
		l.current = minAlive(procs, alive)
	}
	return advise(procs, map[model.ProcessID]bool{l.current: true})
}

// Explicit is a schedule-driven manager used by the lower-bound
// constructions: the advice for round r is Rounds[r-1] when present, and
// the Tail function (or a single min-active default) afterwards. Explicit
// lets proofs pin arbitrary MAXLS behaviors.
type Explicit struct {
	Rounds []map[model.ProcessID]bool
	Tail   PreAdvice
}

// Advise implements Service.
func (e Explicit) Advise(r int, procs []model.ProcessID, alive func(model.ProcessID) bool) map[model.ProcessID]model.CMAdvice {
	if r >= 1 && r <= len(e.Rounds) {
		return advise(procs, e.Rounds[r-1])
	}
	if e.Tail != nil {
		return advise(procs, e.Tail(r, procs))
	}
	return advise(procs, map[model.ProcessID]bool{minAlive(procs, alive): true})
}

// --- validators ---

// TraceError reports that a recorded advice trace violates a contention
// manager property.
type TraceError struct {
	Property string
	Detail   string
}

// Error implements the error interface.
func (e *TraceError) Error() string {
	return fmt.Sprintf("contention manager property %s violated: %s", e.Property, e.Detail)
}

// activeSet returns the processes marked active in one round of a CM trace.
func activeSet(m map[model.ProcessID]model.CMAdvice) []model.ProcessID {
	var out []model.ProcessID
	for id, a := range m {
		if a == model.CMActive {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WakeUpStabilization returns the earliest round rwake such that every
// recorded round >= rwake has exactly one active process (Property 2). It
// returns an error if the trace never stabilizes, including when the final
// round has an active count other than one.
func WakeUpStabilization(cmt model.CMTrace) (int, error) {
	rwake := 1
	for i := range cmt {
		if len(activeSet(cmt[i])) != 1 {
			rwake = i + 2
		}
	}
	if rwake > len(cmt) {
		return 0, &TraceError{"wake-up", "no suffix with exactly one active process"}
	}
	return rwake, nil
}

// LeaderStabilization returns the earliest round rlead such that every
// recorded round >= rlead has the same single active process (Property 3).
func LeaderStabilization(cmt model.CMTrace) (int, error) {
	rlead := 1
	var prev model.ProcessID = -1
	for i := range cmt {
		act := activeSet(cmt[i])
		if len(act) != 1 {
			rlead = i + 2
			prev = -1
			continue
		}
		if prev != -1 && act[0] != prev {
			rlead = i + 1
		}
		prev = act[0]
	}
	if rlead > len(cmt) {
		return 0, &TraceError{"leader-election", "no suffix with a fixed single active process"}
	}
	return rlead, nil
}
