package model

import (
	"fmt"
	"slices"
	"strings"
)

// View is everything one process observes (and emits) in one round: the
// per-process slice of an execution (Definition 11). Two executions are
// indistinguishable to a process exactly when its views match round for
// round (Definition 12) — for deterministic automata started in the same
// state, matching views imply matching states.
type View struct {
	Sent    *Message // message broadcast this round, nil if silent
	Recv    *RecvSet // messages received this round (includes own broadcast)
	CD      CDAdvice // collision detector advice
	CM      CMAdvice // contention manager advice
	Crashed bool     // true once the process is in its fail state
}

// EqualView reports whether two views are identical, which is the per-round
// condition of Definition 12.
func EqualView(a, b View) bool {
	if a.Crashed != b.Crashed || a.CD != b.CD || a.CM != b.CM {
		return false
	}
	if (a.Sent == nil) != (b.Sent == nil) {
		return false
	}
	if a.Sent != nil && *a.Sent != *b.Sent {
		return false
	}
	switch {
	case a.Recv == nil && b.Recv == nil:
		return true
	case a.Recv == nil:
		return b.Recv.Len() == 0
	case b.Recv == nil:
		return a.Recv.Len() == 0
	default:
		return a.Recv.Equal(b.Recv)
	}
}

// Round is one synchronized round of an execution: a lightweight view over
// one row of the execution's TraceArena, obtained via Execution.RoundAt.
type Round struct {
	Number int

	arena *TraceArena
	row   int
	procs []ProcessID // the execution's sorted process table
}

// Senders returns the number of processes that broadcast in this round (the
// c component of the transmission trace, Definition 4), in O(1) from the
// broadcaster count the engine recorded once per round.
func (r Round) Senders() int { return r.arena.Senders(r.row) }

// ViewOf returns process id's view of this round, materialized from the
// arena.
func (r Round) ViewOf(id ProcessID) (View, bool) {
	i, ok := procIndex(r.procs, id)
	if !ok {
		return View{}, false
	}
	return r.arena.ViewAt(r.row, i), true
}

// procIndex locates id in a sorted process table.
func procIndex(procs []ProcessID, id ProcessID) (int, bool) {
	lo, hi := 0, len(procs)
	for lo < hi {
		mid := (lo + hi) / 2
		if procs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(procs) && procs[lo] == id
}

// Decision records a process's consensus decision.
type Decision struct {
	Value Value
	Round int
}

// Execution is a finite prefix of a formal execution (Definition 11): the
// per-round views of every process, recorded in the columnar Arena, plus
// decision bookkeeping maintained by the engine. Every view accessor reads
// the arena's columns; tests and proof constructions build executions
// through the same writer protocol the engine records with.
//
// Under the engine's decisions-only trace mode Arena is nil: the execution
// then carries only Procs, Initial, and Decisions. Decision-derived
// observations (DecidedValues, LastDecisionRound) work either way;
// view-derived ones (View, TransmissionTrace, CDTrace, CMTrace, Validate,
// IndistinguishableTo) require a full trace — check HasViews before relying
// on them.
type Execution struct {
	Procs     []ProcessID
	Arena     *TraceArena
	Decisions map[ProcessID]Decision
	Initial   map[ProcessID]Value // initial consensus values, for validity checks
}

// HasViews reports whether per-round views were recorded: false for
// executions produced under the engine's decisions-only trace mode (and
// for zero-round runs).
func (e *Execution) HasViews() bool { return e.NumRounds() > 0 }

// RoundAt returns a lightweight view of the r-th recorded round (1-based).
func (e *Execution) RoundAt(r int) (Round, bool) {
	if r < 1 || r > e.NumRounds() {
		return Round{}, false
	}
	return Round{
		Number: e.Arena.Number(r - 1),
		arena:  e.Arena,
		row:    r - 1,
		procs:  e.Procs,
	}, true
}

// RoundNumber returns the round number of the r-th recorded round.
func (e *Execution) RoundNumber(r int) int { return e.Arena.Number(r - 1) }

// Release hands the execution's trace arena back to the reuse pool and
// detaches it, closing the last per-run allocation of trace-heavy pipelines
// (the arena's columns): a caller that runs, digests, and releases in a loop
// — the lower-bound searches, the validation sweeps, the replay verifier —
// reuses one arena's grown columns across every run of the same shape.
//
// After Release the execution answers only decision-derived observations
// (HasViews reports false); every view, Round, or RecvPairs slice previously
// derived from the arena is invalid, because the next run writes over it.
// Release is a no-op for executions without an arena (decisions-only
// runs).
func (e *Execution) Release() {
	if e.Arena == nil {
		return
	}
	a := e.Arena
	e.Arena = nil
	a.Release()
}

// NewExecution returns an empty execution over the given sorted process set.
func NewExecution(procs []ProcessID, initial map[ProcessID]Value) *Execution {
	sorted := make([]ProcessID, len(procs))
	copy(sorted, procs)
	slices.Sort(sorted)
	init := make(map[ProcessID]Value, len(initial))
	for id, v := range initial {
		init[id] = v
	}
	return &Execution{
		Procs:     sorted,
		Decisions: make(map[ProcessID]Decision, len(procs)),
		Initial:   init,
	}
}

// NumRounds returns the number of recorded rounds.
func (e *Execution) NumRounds() int {
	if e.Arena == nil {
		return 0
	}
	return e.Arena.NumRounds()
}

// View returns process id's view of round r (1-based). ok is false if the
// round is out of range or the process unknown. The view is a fresh
// snapshot materialized from the arena per call.
func (e *Execution) View(id ProcessID, r int) (View, bool) {
	rd, ok := e.RoundAt(r)
	if !ok {
		return View{}, false
	}
	return rd.ViewOf(id)
}

// TransmissionTrace derives the unique transmission trace (Definition 4) of
// the recorded prefix: per round, the broadcaster count c and the number of
// messages each process received, read straight off the dense columns.
func (e *Execution) TransmissionTrace() TransmissionTrace {
	n := e.NumRounds()
	tt := make(TransmissionTrace, 0, n)
	for k := 0; k < n; k++ {
		rt := RoundTransmission{Senders: e.Arena.Senders(k), Received: make(map[ProcessID]int, len(e.Procs))}
		for i, id := range e.Procs {
			rt.Received[id] = e.Arena.RecvLen(k, i)
		}
		tt = append(tt, rt)
	}
	return tt
}

// CDTrace derives the collision-advice trace (Definition 5).
func (e *Execution) CDTrace() CDTrace {
	n := e.NumRounds()
	out := make(CDTrace, 0, n)
	for k := 0; k < n; k++ {
		m := make(map[ProcessID]CDAdvice, len(e.Procs))
		for i, id := range e.Procs {
			m[id] = e.Arena.CD(k, i)
		}
		out = append(out, m)
	}
	return out
}

// CMTrace derives the contention-advice trace (Definition 7).
func (e *Execution) CMTrace() CMTrace {
	n := e.NumRounds()
	out := make(CMTrace, 0, n)
	for k := 0; k < n; k++ {
		m := make(map[ProcessID]CMAdvice, len(e.Procs))
		for i, id := range e.Procs {
			m[id] = e.Arena.CM(k, i)
		}
		out = append(out, m)
	}
	return out
}

// IndistinguishableTo reports whether e and other are indistinguishable with
// respect to process id through round r (Definition 12): same views in both
// executions for rounds 1..r. Both executions must contain the process and
// at least r rounds. The comparison runs column to column without
// materializing any view.
func (e *Execution) IndistinguishableTo(other *Execution, id ProcessID, r int) bool {
	if r > e.NumRounds() || r > other.NumRounds() {
		return false
	}
	i, ok1 := procIndex(e.Procs, id)
	j, ok2 := procIndex(other.Procs, id)
	if !ok1 || !ok2 {
		return false
	}
	for k := 0; k < r; k++ {
		if !e.Arena.cellEqual(k, i, other.Arena, k, j) {
			return false
		}
	}
	return true
}

// DecidedValues returns the set of distinct decided values.
func (e *Execution) DecidedValues() []Value {
	seen := make(map[Value]struct{})
	for _, d := range e.Decisions {
		seen[d.Value] = struct{}{}
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// LastDecisionRound returns the latest round at which any process decided,
// or 0 if none decided.
func (e *Execution) LastDecisionRound() int {
	last := 0
	for _, d := range e.Decisions {
		if d.Round > last {
			last = d.Round
		}
	}
	return last
}

// String renders a compact per-round table of the execution, useful in
// failing tests and the consensus-sim CLI.
func (e *Execution) String() string {
	var b strings.Builder
	for r := 1; r <= e.NumRounds(); r++ {
		rd, _ := e.RoundAt(r)
		fmt.Fprintf(&b, "r%-3d", rd.Number)
		for _, id := range e.Procs {
			v, _ := rd.ViewOf(id)
			sent := "-"
			if v.Sent != nil {
				sent = v.Sent.String()
			}
			if v.Crashed {
				fmt.Fprintf(&b, "  p%d: CRASHED", id)
				continue
			}
			fmt.Fprintf(&b, "  p%d: tx=%s rx=%d cd=%s cm=%s", id, sent, v.Recv.Len(), v.CD, v.CM)
		}
		b.WriteByte('\n')
	}
	for _, id := range e.Procs {
		if d, ok := e.Decisions[id]; ok {
			fmt.Fprintf(&b, "p%d decided %d at round %d\n", id, uint64(d.Value), d.Round)
		}
	}
	return b.String()
}

// RoundTransmission is one element of a transmission trace (Definition 4):
// c broadcasters, and per-process receive counts T.
type RoundTransmission struct {
	Senders  int
	Received map[ProcessID]int
}

// TransmissionTrace is the per-round transmission trace of an execution
// prefix, indexed by round-1.
type TransmissionTrace []RoundTransmission

// CDTrace is the per-round collision detector advice (Definition 5),
// indexed by round-1.
type CDTrace []map[ProcessID]CDAdvice

// CMTrace is the per-round contention manager advice (Definition 7),
// indexed by round-1.
type CMTrace []map[ProcessID]CMAdvice

// BroadcastCountSymbol is one symbol of the basic broadcast count sequence
// of Definition 22: 0, 1, or 2+ broadcasters in a round.
type BroadcastCountSymbol uint8

// Broadcast count symbols.
const (
	CountZero BroadcastCountSymbol = iota
	CountOne
	CountTwoPlus
)

// String renders the symbol using the paper's notation.
func (s BroadcastCountSymbol) String() string {
	switch s {
	case CountZero:
		return "0"
	case CountOne:
		return "1"
	case CountTwoPlus:
		return "2+"
	default:
		return "?"
	}
}

// BroadcastCountAt returns the broadcast count symbol of round r (1-based):
// one symbol of the basic broadcast count sequence of Definition 22,
// answered from the dense senders column. ok is false when the round is out
// of the recorded range (including decisions-only executions, which record
// no rounds at all).
func (e *Execution) BroadcastCountAt(r int) (BroadcastCountSymbol, bool) {
	if r < 1 || r > e.NumRounds() {
		return CountZero, false
	}
	switch c := e.Arena.Senders(r - 1); {
	case c == 0:
		return CountZero, true
	case c == 1:
		return CountOne, true
	default:
		return CountTwoPlus, true
	}
}

// BroadcastCountSequence returns the basic broadcast count sequence
// (Definition 22) of the recorded prefix.
func (e *Execution) BroadcastCountSequence() []BroadcastCountSymbol {
	n := e.NumRounds()
	out := make([]BroadcastCountSymbol, 0, n)
	for r := 1; r <= n; r++ {
		s, _ := e.BroadcastCountAt(r)
		out = append(out, s)
	}
	return out
}

// SameBroadcastCountPrefix reports whether two symbol sequences agree on
// their first k symbols (both must have at least k symbols).
func SameBroadcastCountPrefix(a, b []BroadcastCountSymbol, k int) bool {
	if len(a) < k || len(b) < k {
		return false
	}
	for i := 0; i < k; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
