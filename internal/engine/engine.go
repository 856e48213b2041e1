// Package engine executes systems of the paper's formal model
// (Definition 10): a set of process automata, a collision detector, a
// contention manager, and a message-loss adversary, driven through
// synchronized rounds. It records full executions (Definition 11) so that
// algorithm tests can validate not just outcomes but the legality of the
// environment itself.
//
// The engine is strictly deterministic: the same configuration (including
// adversary and detector seeds) always yields the same execution.
//
// # Hot path
//
// A run is set-up (State.reset), a loop over one round step
// ((*State).round), and a finish. The round step runs the model's order —
// contention advice, messages, the adversary's plan, delivery, decision
// bookkeeping — over one State holding the run's components, its dense
// per-process buffers and the open round, so no closure captures round
// state and steady-state rounds allocate nothing; receive multisets are
// pooled and reset in place. The delivery loop reads each receiver's loss
// row by index: a loss.ConcurrentPlanner hands over the round's loss
// matrix (PlanRows), and any other adversary's DeliveryFunc answers are
// copied into one reusable row, receivers and senders ascending, so
// stateful adversaries see the same call sequence either way.
//
// Receive sets are built by class, not message by message. After the
// ordered sender gather the round numbers its distinct messages once, in
// first-seen order (classify, through an open-addressing table over the
// messages). Each receiver then makes one branch-free pass over its row
// that counts the senders it hears by class, counts its own broadcast
// whatever the row's self entry says (self entries are never read, and
// Drop's shared matrix marks them lost), and inserts each heard class once
// with multiset.AddNew, ordered by the first sender it heard from that
// class: the order one Add per heard message would insert them in, so a
// compact set ranges as before. One body (receive) serves the sequential,
// sharded and Plan-only paths; a nil row loses nothing, and a receiver
// crashed for the send phase receives nothing.
// TraceDecisionsOnly records nothing per round; TraceFull (the default)
// records every view into a columnar model.TraceArena, allocation-free in
// steady state too. Both modes drive the detector, manager, and adversary
// through identical call sequences, so they produce identical decisions.
//
// # State reuse
//
// Run is new(State).Run. A caller that runs many systems one after another
// (a sweep worker) keeps one State instead: its Run resets the process
// table, the dense buffers, the crash columns, the execution and the
// Result in place, each sized at the new system's process count, so a warm
// State allocates only when that count grows. Nothing of the previous run
// reaches the next one: every buffer is overwritten or cleared by the
// reset or by the round that reads it. The Result, and the Execution it
// points to, belong to the State and are valid only until its next Run.
//
// Three things stay per run. Receive sets come from the package's pool at
// the start of a run and go back at the end, so an owner that lives for a
// few large trials (a sweep job of eight n=256 trials) still finds sets
// whose storage earlier runs grew, where sets of its own would be grown
// anew by every such owner. A full trace's arena comes from model's
// shape-keyed pool, because the caller owns the recorded trace until it
// calls Execution.Release. The shard pool's goroutines start and stop with
// the run, so a State holds no goroutine between runs.
//
// # Parallel delivery
//
// A round's three per-process phases are methods over process indices
// [lo, hi): message, the row planner's loss-matrix fill, and deliver. One
// helper runs a phase inline, or over a bounded worker pool when
// Config.DeliveryWorkers asks for one; the ordered sender gather, the
// message classes and the arena merge stay on the calling goroutine. Each
// shard counts into tallies of its own, carved at reset from the array
// that holds the other index buffers. Shards are a pure function of
// (n, workers) and per-process steps are independent, so decisions and
// traces are byte-identical at any worker count. The pool engages only
// when the detector's behavior is a detector.ConcurrentBehavior, the
// adversary passes loss.ConcurrentSafe (true for the honest, minimal and
// maxnoise detectors and the built-in channel models), and the system has
// at least Config.DeliveryMinProcs processes (Calibrate().MinProcs when
// unset).
package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"adhocconsensus/internal/cm"
	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/multiset"
	"adhocconsensus/internal/telemetry"
)

// DefaultMaxRounds bounds executions whose algorithms fail to terminate.
const DefaultMaxRounds = 100000

// TraceMode selects how much of the execution Run records.
type TraceMode uint8

const (
	// TraceFull records every per-round view (Definition 11), enabling
	// execution validation, trace legality checks, and indistinguishability
	// arguments. The default.
	TraceFull TraceMode = iota
	// TraceDecisionsOnly records only decisions and round counts: the
	// Result's Execution has Procs, Initial, and Decisions but no views.
	// Experiment sweeps that never inspect views run several times faster
	// and nearly allocation-free in this mode. Decisions are byte-identical
	// to a TraceFull run of the same configuration.
	TraceDecisionsOnly
)

// Config assembles a runnable system.
type Config struct {
	// Procs maps process indices to their automata. Required.
	Procs map[model.ProcessID]model.Automaton
	// Initial records each process's initial consensus value, for validity
	// checking and execution bookkeeping. Optional.
	Initial map[model.ProcessID]model.Value
	// Detector supplies collision advice. Defaults to an honest detector in
	// class AC.
	Detector *detector.Detector
	// CM supplies contention advice. Defaults to NoCM (all active).
	CM cm.Service
	// Loss plans message delivery. Defaults to the lossless channel.
	Loss loss.Adversary
	// Crashes schedules permanent crash failures. Optional.
	Crashes model.Schedule
	// MaxRounds bounds the execution. Defaults to DefaultMaxRounds.
	MaxRounds int
	// RunFullHorizon keeps executing to MaxRounds even after every process
	// has decided; used by lower-bound constructions that need fixed-length
	// traces. Default false: stop once all live processes have decided.
	RunFullHorizon bool
	// Trace selects full view recording (default) or decisions-only.
	Trace TraceMode
	// DeliveryWorkers shards each round's delivery loop — plus message
	// generation and the loss matrix's row fill — across up to this many
	// goroutines. 0 or 1 runs sequentially; DeliveryWorkersAuto picks the
	// count from the host calibration (Calibrate). The parallel path
	// requires automata free of shared mutable state (sim.Scenario
	// guarantees this) and engages only when the detector and adversary are
	// order-independent (detector.ConcurrentBehavior / loss.ConcurrentSafe)
	// and the system has at least DeliveryMinProcs processes; decisions and
	// traces are byte-identical to the sequential path at any worker count.
	DeliveryWorkers int
	// DeliveryMinProcs is the smallest system the parallel delivery path
	// engages for (0 selects the calibrated threshold, Calibrate().MinProcs).
	// Below it the round barrier costs more than the sharded loop saves.
	DeliveryMinProcs int
	// Stop, when non-nil, is polled once per round: the run aborts with an
	// error wrapping ErrStopped as soon as it reads true. It is the
	// cooperative cancellation seam for per-trial deadlines and watchdogs —
	// the flag is set from another goroutine (a timer, a signal handler) and
	// the engine notices at the next round boundary. The check is a nil test
	// plus one atomic load per ROUND, never per delivery, so it stays off the
	// hot path.
	Stop *atomic.Bool
}

// ErrStopped is wrapped by the error Run returns when Config.Stop was raised
// mid-execution. Callers distinguish a stopped run (no result, partial
// execution discarded) from a configuration error with errors.Is.
var ErrStopped = errors.New("engine: run stopped")

// PanicError is a panic recovered from automaton (or component) code and
// converted into a per-trial error: the quarantine currency of the sweep
// layer. Error() is deliberately deterministic — the panic value only, no
// stack, no goroutine identity — so result streams containing quarantined
// trials stay byte-identical at any worker count; the captured stack rides
// along in Stack for logs and forensics.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the stack captured at the recovery point (debug.Stack).
	Stack []byte
}

// Error renders the deterministic quarantine message.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// NewPanicError wraps a recovered panic value, capturing the current stack.
// A value that already is a *PanicError (a panic re-raised across a worker
// boundary, e.g. by shardPool) passes through unchanged so the original
// stack survives.
func NewPanicError(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// DefaultDeliveryMinProcs is the auto-off threshold for parallel delivery
// on hosts where calibration is meaningless (GOMAXPROCS=1) or has not run:
// systems smaller than this run the sequential loop even when
// DeliveryWorkers is set. Multi-core hosts refine it via Calibrate.
const DefaultDeliveryMinProcs = 64

// Result reports the outcome of an execution.
type Result struct {
	// Execution is the recorded execution prefix. Under TraceDecisionsOnly
	// it carries decisions but no per-round views.
	Execution *model.Execution
	// Rounds is the number of rounds executed.
	Rounds int
	// Decisions maps processes to their decisions (value and round).
	Decisions map[model.ProcessID]model.Decision
	// AllDecided reports whether every non-crashed process decided.
	AllDecided bool
}

// State is a run's reusable state: its components, the dense per-process
// buffers of the hot loop (indexed by position in the sorted procs table),
// the open round, held in fields rather than closure captures, and the
// execution and Result it fills. Run resets it (reset), steps it (round),
// and closes it (finish). The zero State is ready to use; a State runs one
// system at a time.
type State struct {
	det        *detector.Detector
	manager    cm.Service
	denseCM    cm.DenseAdviser // manager's allocation-free form, if any
	observer   cm.Observer     // manager's broadcast-count hook, if any
	adversary  loss.Adversary
	rowPlanner loss.ConcurrentPlanner     // nil: ask adversary.Plan per pair
	arena      *model.TraceArena          // nil under TraceDecisionsOnly
	pool       *shardPool                 // nil on the sequential path
	alive      func(model.ProcessID) bool // aliveForCM, bound once per State

	procs []model.ProcessID // sorted process table
	autos []model.Automaton
	dec   []model.Decider // nil where the automaton never decides
	sched model.DenseSchedule

	halted  []bool
	decided []bool

	cm         []model.CMAdvice    // this round's contention advice
	msgs       []model.Message     // this round's messages, by index, until the gather
	senders    []model.ProcessID   // this round's broadcasters, sorted
	senderMsgs []model.Message     // senders' messages, parallel to senders (a prefix of msgs)
	recvs      []*model.RecvSet    // pooled receive sets, reset every round
	recvBuf    [][]model.RecvEntry // per-process arena snapshots (TraceFull, sharded)
	planRow    []bool              // one receiver's loss row, for Plan-only adversaries

	// The index buffers, carved from one backing array (ints) at reset.
	// Senders are numbered j in [0, k) and the round's distinct messages,
	// in first-seen order, are its classes c in [0, classes).
	ints    []int32
	sendOrd []int32 // procs[i]'s position in senders, -1 if silent
	cls     []int32 // senders[j]'s class
	rep     []int32 // class c's first sender
	next    []int32 // the next sender of senders[j]'s class, k after its last
	slots   []int32 // open-addressing table of classes by message: c+1, 0 if empty
	tallies []int32 // per shard: a class count and a class order, n entries each
	classes int

	// The open round.
	r     int
	row   int               // open arena row (TraceFull)
	plan  loss.DeliveryFunc // from a Plan-only adversary
	lost  []bool            // from a row planner; nil loses nothing
	fill  func(lo, hi int)  // the row planner's matrix filler, for phasePlan
	phase phase             // what runPhase runs

	exec model.Execution
	res  Result
}

// phase names the per-process work a round hands runPhase.
type phase uint8

const (
	phaseDeliver phase = iota
	phaseMessage
	phasePlan
)

// resize returns s with length n, reusing its memory when it holds n
// entries. A short slice is replaced at length n, never grown by append, so
// a fresh State pays one allocation per buffer.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset sets a run up: component defaults, the sorted process table and
// dense buffers, the crash columns, the execution, the trace arena, the
// pooled receive sets, and the shard pool when the run shards.
func (st *State) reset(cfg *Config, maxRounds int) {
	n := len(cfg.Procs)
	st.det, st.manager, st.adversary = cfg.Detector, cfg.CM, cfg.Loss
	if st.det == nil {
		st.det = detector.New(detector.AC)
	}
	if st.manager == nil {
		st.manager = cm.NoCM{}
	}
	if st.adversary == nil {
		st.adversary = loss.None{}
	}
	st.denseCM, _ = st.manager.(cm.DenseAdviser)
	st.observer, _ = st.manager.(cm.Observer)
	if st.alive == nil {
		st.alive = st.aliveForCM
	}
	st.procs = resize(st.procs, n)[:0]
	for id := range cfg.Procs {
		st.procs = append(st.procs, id)
	}
	slices.Sort(st.procs)
	st.autos = resize(st.autos, n)
	st.dec = resize(st.dec, n)
	for i, id := range st.procs {
		st.autos[i] = cfg.Procs[id]
		st.dec[i], _ = st.autos[i].(model.Decider)
	}
	st.sched.Compile(cfg.Crashes, st.procs)
	st.halted = resize(st.halted, n)
	st.decided = resize(st.decided, n)
	clear(st.halted)
	clear(st.decided)
	st.cm = resize(st.cm, n)
	st.msgs = resize(st.msgs, n)
	st.senders = resize(st.senders, n)[:0]
	st.recvs = resize(st.recvs, n)
	for i := range st.recvs {
		st.recvs[i] = recvPool.Get().(*model.RecvSet)
	}

	st.rowPlanner, st.plan, st.lost, st.fill = nil, nil, nil, nil
	if loss.ConcurrentSafe(st.adversary) {
		st.rowPlanner = st.adversary.(loss.ConcurrentPlanner)
	} else {
		st.planRow = resize(st.planRow, n)
	}
	workers := resolveDeliveryWorkers(cfg, n, st.det, st.adversary)
	st.arena = nil
	if cfg.Trace == TraceFull {
		// Acquired from the shape-keyed reuse pool: callers that digest the
		// trace and call Execution.Release recycle the columns run to run.
		st.arena = model.AcquireTraceArena(n, maxRounds)
		if workers > 1 {
			// Shard workers snapshot receive sets into per-process buffers;
			// the sequential path appends straight into the arena instead.
			st.recvBuf = resize(st.recvBuf, n)
		}
	}
	st.pool = nil
	if workers > 1 {
		st.pool = newShardPool(workers, st.runPhase)
	}
	st.carve(n, workers)

	// The execution shares the sorted table. Initial is copied, so a caller
	// that edits its map after Run does not rewrite the record.
	if st.exec.Decisions == nil {
		st.exec.Decisions = make(map[model.ProcessID]model.Decision, n)
		st.exec.Initial = make(map[model.ProcessID]model.Value, len(cfg.Initial))
	} else {
		clear(st.exec.Decisions)
		clear(st.exec.Initial)
	}
	for id, v := range cfg.Initial {
		st.exec.Initial[id] = v
	}
	st.exec.Procs = st.procs[:n:n]
	st.exec.Arena = st.arena
}

// carve cuts the index buffers of an n-process run with the given number
// of delivery shards from one backing array: sendOrd, the class scratch
// (cls, rep, next), the class table, sized for n senders at half load, and
// each shard's tallies.
func (st *State) carve(n, shards int) {
	table := 1 << bits.Len(uint(2*n-1))
	buf := resize(st.ints, 4*n+table+2*n*shards)
	st.ints = buf
	cut := func(m int) []int32 {
		s := buf[:m:m]
		buf = buf[m:]
		return s
	}
	st.sendOrd, st.cls, st.rep, st.next = cut(n), cut(n), cut(n), cut(n)
	st.slots, st.tallies = cut(table), buf
}

// position returns id's index in the sorted process table, and false for
// an ID outside it. A contiguous table (sim builds 1..n) answers by offset;
// any other falls back to binary search.
func (st *State) position(id model.ProcessID) (int, bool) {
	if i := int(id - st.procs[0]); i >= 0 && i < len(st.procs) && st.procs[i] == id {
		return i, true
	}
	return slices.BinarySearch(st.procs, id)
}

// aliveForCM is the liveness the contention manager sees in the open
// round. A halted (decided) process no longer contends for the channel, so
// the manager treats it like a crashed one — a backoff implementation
// would observe the same thing.
func (st *State) aliveForCM(id model.ProcessID) bool {
	i, ok := st.position(id)
	return ok && !st.sched.CrashedForSend(i, st.r) && !st.halted[i]
}

// recvPool recycles receive multisets across rounds and runs in both trace
// modes: full traces snapshot each receive set into the columnar arena
// instead of retaining the multiset, so nothing recorded ever aliases a
// pooled set.
var recvPool = sync.Pool{New: func() any { return multiset.New[model.Message]() }}

// resolveDeliveryWorkers resolves the effective worker count for a run's
// delivery loop: 1 (sequential) unless the configuration opts in, the
// system is at least the auto-off threshold, and both the detector and the
// adversary are order-independent — the conditions under which the sharded
// loop is provably byte-identical to the sequential one.
func resolveDeliveryWorkers(cfg *Config, n int, det *detector.Detector, adversary loss.Adversary) int {
	w := cfg.DeliveryWorkers
	if w == DeliveryWorkersAuto {
		w = Calibrate().Workers
	}
	if w <= 1 {
		return 1
	}
	minProcs := cfg.DeliveryMinProcs
	if minProcs <= 0 {
		minProcs = Calibrate().MinProcs
	}
	if n < minProcs {
		return 1
	}
	if !det.ConcurrentSafe() || !loss.ConcurrentSafe(adversary) {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes the configured system on a fresh State and returns the
// recorded execution. It is new(State).Run: callers that run many systems
// in a row keep one State instead.
func Run(cfg Config) (*Result, error) {
	return new(State).Run(cfg)
}

// Run executes the configured system and returns the recorded execution:
// set-up, one round step per round until every live process has decided
// (or MaxRounds, under RunFullHorizon), and the finish. The Result belongs
// to st and is valid only until st's next Run.
func (st *State) Run(cfg Config) (*Result, error) {
	if len(cfg.Procs) == 0 {
		return nil, fmt.Errorf("engine: no processes configured")
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	st.reset(&cfg, maxRounds)
	defer st.release()
	rounds := 0
	for r := 1; r <= maxRounds; r++ {
		if cfg.Stop != nil && cfg.Stop.Load() {
			return nil, fmt.Errorf("engine: stopped before round %d: %w", r, ErrStopped)
		}
		rounds = r
		if st.round(r) && !cfg.RunFullHorizon {
			break
		}
	}
	return st.finish(rounds), nil
}

// round runs round r in the model's order (Definitions 1 and 10–11):
// contention advice, each process's msg function, the adversary's plan,
// delivery with collision advice and the transitions, then the decision
// bookkeeping. It reports whether every live process has decided.
func (st *State) round(r int) bool {
	st.r = r
	if st.denseCM != nil {
		st.denseCM.AdviseInto(r, st.procs, st.alive, st.cm)
	} else {
		advice := st.manager.Advise(r, st.procs, st.alive)
		for i, id := range st.procs {
			st.cm[i] = advice[id]
		}
	}

	// Message generation, then one ordered gather that numbers the senders
	// and moves their messages to the front of msgs (a sender's position
	// never exceeds its index). The sorted table keeps senders sorted, and
	// the gather is the same whether the Message calls ran sharded or not.
	st.each(phaseMessage)
	st.senders = st.senders[:0]
	for i, id := range st.procs {
		if st.sendOrd[i] >= 0 {
			st.sendOrd[i] = int32(len(st.senders))
			st.msgs[len(st.senders)] = st.msgs[i]
			st.senders = append(st.senders, id)
		}
	}
	st.senderMsgs = st.msgs[:len(st.senders)]
	st.classify()

	// Adversary planning. A row planner returns its loss matrix with a row
	// filler (nil — constant plans, v1 schedules — when the matrix is
	// already complete); a Plan-only adversary returns its DeliveryFunc.
	if st.rowPlanner != nil {
		var fill func(lo, hi int)
		fill, st.lost = st.rowPlanner.PlanRows(r, st.senders, st.procs)
		if fill != nil {
			st.fill = fill
			st.each(phasePlan)
		}
	} else {
		st.plan = st.adversary.Plan(r, st.senders, st.procs)
	}

	if st.arena != nil {
		st.row = st.arena.BeginRound(r, len(st.senders))
	}
	st.each(phaseDeliver)
	if st.arena != nil && st.pool != nil {
		// Receive segments merge into the shared arena in process order
		// regardless of which worker built them, keeping the recorded trace
		// deterministic (the sequential path finished each cell inline).
		for i := range st.procs {
			st.arena.FinishCellRecv(st.recvBuf[i])
		}
	}
	if st.observer != nil {
		st.observer.Observe(r, len(st.senders))
	}

	// Decision bookkeeping and the halting test.
	allDone := true
	for i, id := range st.procs {
		if st.sched.CrashedForDeliver(i, r) {
			continue
		}
		d := st.dec[i]
		if d == nil {
			allDone = false
			continue
		}
		if v, has := d.Decided(); has && !st.decided[i] {
			st.decided[i] = true
			st.exec.Decisions[id] = model.Decision{Value: v, Round: r}
		}
		if d.Halted() {
			st.halted[i] = true
		}
		if !st.decided[i] {
			allDone = false
		}
	}
	return allDone
}

// classify numbers the round's distinct messages in first-seen order: one
// pass over senderMsgs through the open-addressing table sets cls and each
// new class's first sender, and one pass back links each class's senders
// in ascending order through next (rep, reset to k, is the list head).
func (st *State) classify() {
	msgs := st.senderMsgs
	k := len(msgs)
	st.classes = 0
	if k == 0 {
		return
	}
	b := bits.Len(uint(2*k - 1))
	slots, shift := st.slots[:1<<b], uint(64-b)
	clear(slots)
	cls, rep, next := st.cls[:k], st.rep[:k], st.next[:k]
	classes := int32(0)
	for j, m := range msgs {
		h := (uint64(m.Value) ^ uint64(m.Kind)<<56) * 0x9e3779b97f4a7c15 >> shift
		for {
			c := slots[h] - 1
			if c < 0 {
				slots[h] = classes + 1
				rep[classes] = int32(j)
				cls[j] = classes
				classes++
				break
			}
			if msgs[rep[c]] == m {
				cls[j] = c
				break
			}
			h = (h + 1) & uint64(len(slots)-1)
		}
	}
	st.classes = int(classes)
	for c := range rep[:classes] {
		rep[c] = int32(k)
	}
	for j := k - 1; j >= 0; j-- {
		c := cls[j]
		next[j], rep[c] = rep[c], int32(j)
	}
}

// receive fills recv, empty, with what a receiver hears this round: every
// sender whose entry in its loss row lost is false (a nil row loses
// nothing), and its own broadcast, own being its sender number or -1. It
// counts the row into cnt by class in one pass, then inserts each heard
// class once, ordered by the first sender heard from it, which is the
// order one Add per heard message would insert them in. cnt and order are
// the calling shard's tallies.
func (st *State) receive(recv *model.RecvSet, lost []bool, own int, cnt, order []int32) {
	cls := st.cls[:len(st.senderMsgs)]
	cnt = cnt[:st.classes]
	clear(cnt)
	if lost == nil {
		for _, c := range cls {
			cnt[c]++
		}
	} else {
		lost = lost[:len(cls)]
		for j, c := range cls {
			cnt[c] += 1 - b2i(lost[j])
		}
		if own >= 0 {
			// Self entries of a row are never read: count the broadcast
			// whatever its entry says.
			cnt[cls[own]] += b2i(lost[own])
		}
	}
	heard, sorted := 0, true
	for c, n := range cnt {
		if n == 0 {
			continue
		}
		j := st.rep[c]
		for lost != nil && lost[j] && int(j) != own {
			j = st.next[j]
		}
		if heard > 0 && j < order[heard-1] {
			sorted = false
		}
		order[heard] = j
		heard++
	}
	order = order[:heard]
	if !sorted {
		slices.Sort(order)
	}
	for _, j := range order {
		recv.AddNew(st.senderMsgs[j], int(cnt[cls[j]]))
	}
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// each runs phase p over every process index: inline, or sharded over the
// pool. pool.Run's channel handshake orders the phase write before any
// worker's read, so one pool and one barrier serve every phase.
func (st *State) each(p phase) {
	st.phase = p
	if st.pool != nil {
		st.pool.Run(len(st.procs))
	} else {
		st.runPhase(0, 0, len(st.procs))
	}
}

// runPhase runs the open phase over process indices [lo, hi) as shard w.
// Per-process steps are independent, so the pool runs disjoint ranges
// concurrently.
func (st *State) runPhase(w, lo, hi int) {
	switch st.phase {
	case phaseMessage:
		st.message(lo, hi)
	case phasePlan:
		st.fill(lo, hi)
	default:
		st.deliver(w, lo, hi)
	}
}

// message runs the msg function (Definition 1) of processes [lo, hi). A
// live automaton's message lands in its own msgs slot, and sendOrd marks it
// a sender (0) or silent (-1) until the gather numbers the senders. The
// slots hold values, not pointers, so the stores need no write barrier.
func (st *State) message(lo, hi int) {
	r := st.r
	for i := lo; i < hi; i++ {
		st.sendOrd[i] = -1
		if st.sched.CrashedForSend(i, r) || st.halted[i] {
			continue
		}
		if m := st.autos[i].Message(r, st.cm[i]); m != nil {
			st.msgs[i], st.sendOrd[i] = *m, 0
		}
	}
}

// deliver runs the delivery phase of processes [lo, hi) as shard w:
// receive sets, collision advice, arena recording, and the automaton
// transitions.
func (st *State) deliver(w, lo, hi int) {
	// Locals, so the inner loops read registers rather than the run state.
	r, row, plan, lost := st.r, st.row, st.plan, st.lost
	det, arena, perPair := st.det, st.arena, st.rowPlanner == nil
	snapshot := st.pool != nil // shard workers snapshot receive sets (TraceFull)
	senders, senderMsgs := st.senders, st.senderMsgs
	k, n := len(senders), len(st.procs)
	tally := st.tallies[2*n*w : 2*n*(w+1)]
	cnt, order := tally[:n], tally[n:]
	for i := lo; i < hi; i++ {
		id := st.procs[i]
		if st.sched.CrashedForSend(i, r) {
			// A crashed process receives nothing; its advice is still part
			// of the formal CD trace and must be legal for the class, so it
			// is computed like any other process's.
			advice := det.Advise(r, id, k, 0)
			if arena != nil {
				arena.RecordCell(row, i, nil, advice, st.cm[i], true)
				if snapshot {
					st.recvBuf[i] = st.recvBuf[i][:0]
				} else {
					arena.FinishCellRecv(nil)
				}
			}
			continue
		}
		// Receiver i's loss row: the planner's matrix row, or one filled
		// from the DeliveryFunc in the order stateful Plan-only adversaries
		// rely on (senders ascending, no self-pair). A nil row loses
		// nothing; a broadcaster always hears itself.
		var lostRow []bool
		if perPair {
			lostRow = st.planRow[:k]
			for j, snd := range senders {
				lostRow[j] = snd != id && !plan(id, snd)
			}
		} else if lost != nil {
			lostRow = lost[i*k : (i+1)*k]
		}
		own := int(st.sendOrd[i])
		recv := st.recvs[i]
		recv.Reset()
		st.receive(recv, lostRow, own, cnt, order)
		advice := det.Advise(r, id, k, recv.Len())
		if arena != nil {
			var sentMsg *model.Message
			if own >= 0 {
				sentMsg = &senderMsgs[own]
			}
			arena.RecordCell(row, i, sentMsg, advice, st.cm[i], false)
			if snapshot {
				st.recvBuf[i] = recv.AppendPairs(st.recvBuf[i][:0])
			} else {
				arena.FinishCellFromMultiset(recv)
			}
		}
		if st.sched.CrashedForDeliver(i, r) || st.halted[i] {
			continue // crashed mid-round or already halted: no transition
		}
		st.autos[i].Deliver(r, recv, advice, st.cm[i])
	}
}

// finish closes the run after its last round: the final liveness sweep,
// the once-per-run telemetry, and the Result.
func (st *State) finish(rounds int) *Result {
	// The in-round liveness rule: only processes that crashed within the
	// executed prefix are exempt from deciding.
	allDecided := true
	for i := range st.procs {
		if !st.decided[i] && !st.sched.CrashedDuring(i, rounds) {
			allDecided = false
			break
		}
	}
	// Telemetry publishes once per run, not per round: when disabled every
	// call below is a nil-receiver no-op, and even when enabled the round
	// step itself stays untouched.
	em := telemetry.Engine()
	em.Runs.Inc()
	em.Rounds.Add(uint64(rounds))
	if st.pool != nil {
		em.RoundsParallel.Add(uint64(rounds))
		dispatches, shards := st.pool.Stats()
		em.PoolDispatches.Add(dispatches)
		em.PoolShards.Add(shards)
	} else {
		em.RoundsSequential.Add(uint64(rounds))
	}
	st.res = Result{
		Execution:  &st.exec,
		Rounds:     rounds,
		Decisions:  st.exec.Decisions,
		AllDecided: allDecided,
	}
	return &st.res
}

// release stops the shard workers and returns the receive sets to their
// pool. Run defers it, so a stopped or panicking run releases too.
func (st *State) release() {
	if st.pool != nil {
		st.pool.Close()
	}
	for i, rs := range st.recvs {
		rs.Reset()
		recvPool.Put(rs)
		st.recvs[i] = nil
	}
}

// CheckAgreement verifies that no two processes decided different values
// (consensus property 1).
func CheckAgreement(res *Result) error {
	vals := res.Execution.DecidedValues()
	if len(vals) > 1 {
		return fmt.Errorf("agreement violated: values %v decided", vals)
	}
	return nil
}

// CheckStrongValidity verifies that every decided value was some process's
// initial value (consensus property 2, strong form). It allocates nothing:
// Initial is scanned again only for a decision that differs from the last
// value found there, so decisions that agree cost one scan.
func CheckStrongValidity(res *Result) error {
	var last model.Value // the last decided value found among the initial values
	found := false
	for id, d := range res.Decisions {
		if found && d.Value == last {
			continue
		}
		if !hasInitial(res.Execution.Initial, d.Value) {
			return fmt.Errorf("strong validity violated: process %d decided %d, not any process's initial value",
				id, uint64(d.Value))
		}
		last, found = d.Value, true
	}
	return nil
}

// hasInitial reports whether v is among the initial values.
func hasInitial(initial map[model.ProcessID]model.Value, v model.Value) bool {
	for _, w := range initial {
		if w == v {
			return true
		}
	}
	return false
}

// CheckUniformValidity verifies the weaker uniform validity property: if all
// initial values are equal, that value is the only decision.
func CheckUniformValidity(res *Result) error {
	var common *model.Value
	uniform := true
	for _, v := range res.Execution.Initial {
		v := v
		if common == nil {
			common = &v
		} else if *common != v {
			uniform = false
		}
	}
	if !uniform || common == nil {
		return nil
	}
	for id, d := range res.Decisions {
		if d.Value != *common {
			return fmt.Errorf("uniform validity violated: all started with %d but process %d decided %d",
				uint64(*common), id, uint64(d.Value))
		}
	}
	return nil
}

// CheckTermination verifies that every correct (never-crashed) process
// decided within the executed prefix.
func CheckTermination(res *Result, crashes model.Schedule) error {
	for _, id := range res.Execution.Procs {
		if _, crashed := crashes[id]; crashed {
			continue
		}
		if _, ok := res.Decisions[id]; !ok {
			return fmt.Errorf("termination violated: correct process %d undecided after %d rounds",
				id, res.Rounds)
		}
	}
	return nil
}
