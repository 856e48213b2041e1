// Package model defines the formal system model of Section 3 of the paper:
// processes (automata), messages, collision-detector and contention-manager
// advice, transmission/CD/CM traces, executions (Definition 11), crash
// schedules, and indistinguishability (Definition 12).
//
// Rounds are numbered starting at 1, matching the paper. Trace slices are
// indexed by round-1.
//
// An execution's per-round views live in a columnar TraceArena (dense
// append-only columns, zero steady-state allocation while recording; see
// the TraceArena type for the ownership and reuse rules), and Views
// materialize lazily through the accessors (Execution.View, Round.ViewOf,
// Execution.RoundAt). The engine records through the arena's writer
// protocol (BeginRound, RecordCell, FinishCellRecv); tests and proof
// constructions that build an execution by hand use the same protocol, so
// every derived observation (Senders, traces, Validate,
// indistinguishability, export) reads the same columns.
package model

import (
	"fmt"

	"adhocconsensus/internal/multiset"
)

// ProcessID is a process index drawn from the index set I (Section 3.1).
// Anonymous algorithms never read their own ProcessID; non-anonymous
// algorithms may embed it in their state.
type ProcessID int

// Value is an element of the consensus value set V. Values are indices into
// a valueset.Domain, so |V| can be as large as 2^64 without materializing V.
type Value uint64

// MessageKind discriminates the message alphabet M used by the algorithms in
// the paper and by example applications.
type MessageKind uint8

// Message kinds. The paper's algorithms broadcast either a value estimate, a
// bare "veto", or a bare "vote"; the non-anonymous variant additionally
// broadcasts the elected leader's value.
const (
	KindEstimate    MessageKind = iota + 1 // Algorithm 1/2 prepare and proposal broadcasts
	KindVeto                               // negative acknowledgment (Algorithms 1, 2, §7.3)
	KindVote                               // Algorithm 3 BST votes and Algorithm 2 bit rounds
	KindLeaderValue                        // §7.3 phase-2 leader value broadcast
	KindApp                                // application payloads used by examples
)

// String returns a short human-readable kind name.
func (k MessageKind) String() string {
	switch k {
	case KindEstimate:
		return "est"
	case KindVeto:
		return "veto"
	case KindVote:
		return "vote"
	case KindLeaderValue:
		return "leaderval"
	case KindApp:
		return "app"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is an element of the fixed message alphabet M. Messages carry no
// sender identity: the model's receive sets are anonymous multisets.
type Message struct {
	Kind  MessageKind
	Value Value
}

// String renders the message for traces and test failures.
func (m Message) String() string {
	switch m.Kind {
	case KindVeto, KindVote:
		return m.Kind.String()
	default:
		return fmt.Sprintf("%s(%d)", m.Kind, uint64(m.Value))
	}
}

// RecvSet is the multiset of messages a process receives in one round.
type RecvSet = multiset.Multiset[Message]

// CDAdvice is the binary output of a collision detector for one process in
// one round (Section 1.3): Collision (the paper's ±) roughly means "you lost
// a message this round"; Null roughly means "you did not".
type CDAdvice uint8

// Collision detector advice values.
const (
	CDNull      CDAdvice = iota + 1 // null: no loss indicated
	CDCollision                     // ±: loss indicated
)

// String renders the advice using the paper's notation.
func (a CDAdvice) String() string {
	switch a {
	case CDNull:
		return "null"
	case CDCollision:
		return "±"
	default:
		return fmt.Sprintf("cd(%d)", uint8(a))
	}
}

// CMAdvice is the output of a contention manager for one process in one
// round (Section 4): Active suggests the process may broadcast, Passive
// suggests it stay silent. Processes are free to ignore the advice (and the
// paper's algorithms do ignore it in veto/propose phases).
type CMAdvice uint8

// Contention manager advice values.
const (
	CMPassive CMAdvice = iota + 1
	CMActive
)

// String renders the advice.
func (a CMAdvice) String() string {
	switch a {
	case CMPassive:
		return "passive"
	case CMActive:
		return "active"
	default:
		return fmt.Sprintf("cm(%d)", uint8(a))
	}
}

// Automaton is the executable form of the paper's process automaton
// (Definition 1). The engine drives each automaton through synchronized
// rounds: first Message (the msg function, given the contention manager
// advice), then Deliver (the trans function, given the receive multiset and
// both advices).
//
// Implementations must be deterministic: identical sequences of inputs must
// produce identical sequences of outputs. This is what makes recorded
// executions replayable and the indistinguishability harness sound.
type Automaton interface {
	// Message returns the message this process broadcasts in round r, or
	// nil for silence. The returned pointer is read (and copied) by the
	// engine before the automaton's next Message call and never retained,
	// so implementations may return a pointer to a per-automaton scratch
	// buffer reused across rounds — the paper's automata do, which keeps
	// the round hot path allocation-free.
	Message(r int, cm CMAdvice) *Message
	// Deliver completes round r: recv is the received multiset (always
	// including the process's own broadcast, per Definition 11 constraint
	// 5), cd is the collision detector advice, and cm repeats the advice
	// given to Message. recv is only valid for the duration of the call
	// and must not be retained: in every engine trace mode it is a pooled
	// multiset reset and refilled the next round (full traces snapshot its
	// contents into the columnar TraceArena instead of retaining it).
	Deliver(r int, recv *RecvSet, cd CDAdvice, cm CMAdvice)
}

// Decider is implemented by automata that solve a decision problem.
type Decider interface {
	// Decided returns the decision value once the process has decided.
	Decided() (Value, bool)
	// Halted reports whether the process has halted (stopped broadcasting
	// and ignoring further input).
	Halted() bool
}

// CrashTime says when within a round a scheduled crash takes effect.
type CrashTime uint8

// Crash timing options. BeforeSend models a process that fails before
// broadcasting in its crash round; AfterSend models the nastier case where
// the process broadcasts in its crash round and then fails (allowed by the
// model: constraint 2 of Definition 11 lets a process transition to the fail
// state in any round).
const (
	CrashBeforeSend CrashTime = iota + 1
	CrashAfterSend
)

// Crash schedules a permanent crash failure for one process.
type Crash struct {
	Round int
	Time  CrashTime
}

// Schedule maps processes to their crash events. Processes absent from the
// map are correct (never crash).
type Schedule map[ProcessID]Crash

// CrashedDuring reports whether id is already in the fail state for the
// send phase (resp. deliver phase) of round r.
func (s Schedule) crashedFor(id ProcessID, r int, phaseAfterSend bool) bool {
	c, ok := s[id]
	if !ok {
		return false
	}
	if r > c.Round {
		return true
	}
	if r < c.Round {
		return false
	}
	// r == c.Round
	if c.Time == CrashBeforeSend {
		return true
	}
	// CrashAfterSend: alive for the send phase, crashed for delivery.
	return phaseAfterSend
}

// CrashedForSend reports whether id is crashed when messages are generated
// in round r.
func (s Schedule) CrashedForSend(id ProcessID, r int) bool {
	return s.crashedFor(id, r, false)
}

// CrashedForDeliver reports whether id is crashed when round r's receive
// sets and advice are delivered.
func (s Schedule) CrashedForDeliver(id ProcessID, r int) bool {
	return s.crashedFor(id, r, true)
}

// DenseSchedule is a crash schedule compiled against a sorted process
// table: the simulation hot loops consult it by process index instead of
// hashing ProcessIDs into the map-backed Schedule every round.
type DenseSchedule struct {
	rounds []int // 0 = never crashes
	times  []CrashTime
}

// Compile compiles s for the given process table into d: entry i
// describes procs[i]. Scheduled rounds below 1 mean "crashed from the
// start" and compile to {Round: 1, CrashBeforeSend}, matching the map
// semantics (CrashedForSend is true for every round when Round <= 0). d's
// columns are reused when they hold len(procs) entries, so an owner that
// compiles a schedule per run allocates only when the process count grows.
func (d *DenseSchedule) Compile(s Schedule, procs []ProcessID) {
	n := len(procs)
	if cap(d.rounds) < n {
		d.rounds, d.times = make([]int, n), make([]CrashTime, n)
	}
	d.rounds, d.times = d.rounds[:n], d.times[:n]
	clear(d.rounds)
	clear(d.times)
	if len(s) == 0 {
		return
	}
	for i, id := range procs {
		c, ok := s[id]
		if !ok {
			continue
		}
		if c.Round < 1 {
			c.Round, c.Time = 1, CrashBeforeSend
		}
		d.rounds[i] = c.Round
		d.times[i] = c.Time
	}
}

// CrashedForSend mirrors Schedule.CrashedForSend for process index i.
func (d DenseSchedule) CrashedForSend(i, r int) bool {
	cr := d.rounds[i]
	if cr == 0 {
		return false
	}
	return r > cr || (r == cr && d.times[i] == CrashBeforeSend)
}

// CrashedForDeliver mirrors Schedule.CrashedForDeliver: by the deliver
// phase of its crash round a process is failed under either crash timing.
func (d DenseSchedule) CrashedForDeliver(i, r int) bool {
	cr := d.rounds[i]
	return cr != 0 && r >= cr
}

// CrashedDuring reports whether process index i actually entered its fail
// state within an executed prefix of `rounds` rounds. This is the liveness
// rule of the engine's final AllDecided sweep: a process that crashed
// mid-run is never counted as undecided, while a crash scheduled beyond
// the executed prefix does not exempt the process.
func (d DenseSchedule) CrashedDuring(i, rounds int) bool {
	cr := d.rounds[i]
	return cr != 0 && cr <= rounds
}

// LastCrashRound returns the largest crash round in the schedule, or 0 if
// the schedule is empty. Theorem 3 states Algorithm 3's termination bound
// relative to this round ("after failures cease").
func (s Schedule) LastCrashRound() int {
	last := 0
	for _, c := range s {
		if c.Round > last {
			last = c.Round
		}
	}
	return last
}
