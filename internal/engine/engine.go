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
// Run is set-up (newRunState), a loop over one round step
// ((*runState).round), and a finish. The round step runs the model's order
// — contention advice, messages, the adversary's plan, delivery, decision
// bookkeeping — over one runState holding the run's components, its dense
// per-process buffers and the open round, so no closure captures round
// state and steady-state rounds allocate nothing; receive multisets are
// pooled and reset in place. The delivery loop reads each receiver's loss
// row by index: a loss.ConcurrentPlanner hands over the round's loss
// matrix (PlanRows), and any other adversary's DeliveryFunc answers are
// copied into one reusable row, receivers and senders ascending, so
// stateful adversaries see the same call sequence either way.
// TraceDecisionsOnly records nothing per round; TraceFull (the default)
// records every view into a columnar model.TraceArena, allocation-free in
// steady state too. Both modes drive the detector, manager, and adversary
// through identical call sequences, so they produce identical decisions.
//
// # Parallel delivery
//
// A round's three per-process phases are methods over process indices
// [lo, hi): message, the row planner's loss-matrix fill, and deliver. One
// helper runs a phase inline, or over a bounded worker pool when
// Config.DeliveryWorkers asks for one; the ordered sender gather and the
// arena merge stay on the calling goroutine. Shards are a pure function of
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

// runState is one run: its components, the dense per-process buffers of
// the hot loop (indexed by position in the sorted procs table), and the
// open round, held in fields rather than closure captures. Run builds it
// (newRunState), steps it (round), and closes it (finish).
type runState struct {
	det        *detector.Detector
	manager    cm.Service
	denseCM    cm.DenseAdviser // manager's allocation-free form, if any
	observer   cm.Observer     // manager's broadcast-count hook, if any
	adversary  loss.Adversary
	rowPlanner loss.ConcurrentPlanner // nil: ask adversary.Plan per pair
	exec       *model.Execution
	arena      *model.TraceArena          // nil under TraceDecisionsOnly
	pool       *shardPool                 // nil on the sequential path
	alive      func(model.ProcessID) bool // aliveForCM, bound once per run

	procs []model.ProcessID // sorted process table
	autos []model.Automaton
	dec   []model.Decider // nil where the automaton never decides
	sched model.DenseSchedule

	halted  []bool
	decided []bool

	cm         []model.CMAdvice    // this round's contention advice
	msgs       []model.Message     // this round's messages, by index, until the gather
	sendOrd    []int               // procs[i]'s position in senders, -1 if silent
	senders    []model.ProcessID   // this round's broadcasters, sorted
	senderMsgs []model.Message     // senders' messages, parallel to senders (a prefix of msgs)
	recvs      []*model.RecvSet    // pooled receive sets, reset every round
	recvBuf    [][]model.RecvEntry // per-process arena snapshots (TraceFull, sharded)
	planRow    []bool              // one receiver's loss row, for Plan-only adversaries

	// The open round.
	r     int
	row   int               // open arena row (TraceFull)
	plan  loss.DeliveryFunc // from a Plan-only adversary
	lost  []bool            // from a row planner; nil loses nothing
	fill  func(lo, hi int)  // the row planner's matrix filler, for phasePlan
	phase phase             // what runPhase runs
}

// phase names the per-process work a round hands runPhase.
type phase uint8

const (
	phaseDeliver phase = iota
	phaseMessage
	phasePlan
)

// newRunState sets a run up: component defaults, the sorted process table
// and dense buffers, the trace arena, the pooled receive sets, and the
// shard pool when the run shards.
func newRunState(cfg *Config, maxRounds int) *runState {
	n := len(cfg.Procs)
	st := &runState{
		det:       cfg.Detector,
		manager:   cfg.CM,
		adversary: cfg.Loss,
		procs:     make([]model.ProcessID, 0, n),
		autos:     make([]model.Automaton, n),
		dec:       make([]model.Decider, n),
		halted:    make([]bool, n),
		decided:   make([]bool, n),
		cm:        make([]model.CMAdvice, n),
		msgs:      make([]model.Message, n),
		sendOrd:   make([]int, n),
		senders:   make([]model.ProcessID, 0, n),
		recvs:     make([]*model.RecvSet, n),
	}
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
	st.alive = st.aliveForCM
	for id := range cfg.Procs {
		st.procs = append(st.procs, id)
	}
	slices.Sort(st.procs)
	for i, id := range st.procs {
		st.autos[i] = cfg.Procs[id]
		if d, ok := cfg.Procs[id].(model.Decider); ok {
			st.dec[i] = d
		}
	}
	st.sched = cfg.Crashes.Dense(st.procs)
	st.exec = model.NewExecution(st.procs, cfg.Initial)
	workers := resolveDeliveryWorkers(cfg, n, st.det, st.adversary)
	if loss.ConcurrentSafe(st.adversary) {
		st.rowPlanner = st.adversary.(loss.ConcurrentPlanner)
	} else {
		st.planRow = make([]bool, n)
	}
	if cfg.Trace == TraceFull {
		// Acquired from the shape-keyed reuse pool: callers that digest the
		// trace and call Execution.Release recycle the columns run to run.
		st.arena = model.AcquireTraceArena(n, maxRounds)
		st.exec.Arena = st.arena
		if workers > 1 {
			// Shard workers snapshot receive sets into per-process buffers;
			// the sequential path appends straight into the arena instead.
			st.recvBuf = make([][]model.RecvEntry, n)
		}
	}
	for i := range st.recvs {
		st.recvs[i] = recvPool.Get().(*model.RecvSet)
	}
	if workers > 1 {
		st.pool = newShardPool(workers, st.runPhase)
	}
	return st
}

// position returns id's index in the sorted process table, and false for
// an ID outside it. A contiguous table (sim builds 1..n) answers by offset;
// any other falls back to binary search.
func (st *runState) position(id model.ProcessID) (int, bool) {
	if i := int(id - st.procs[0]); i >= 0 && i < len(st.procs) && st.procs[i] == id {
		return i, true
	}
	return slices.BinarySearch(st.procs, id)
}

// aliveForCM is the liveness the contention manager sees in the open
// round. A halted (decided) process no longer contends for the channel, so
// the manager treats it like a crashed one — a backoff implementation
// would observe the same thing.
func (st *runState) aliveForCM(id model.ProcessID) bool {
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

// Run executes the configured system and returns the recorded execution:
// set-up, one round step per round until every live process has decided
// (or MaxRounds, under RunFullHorizon), and the finish.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Procs) == 0 {
		return nil, fmt.Errorf("engine: no processes configured")
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	st := newRunState(&cfg, maxRounds)
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
func (st *runState) round(r int) bool {
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
			st.sendOrd[i] = len(st.senders)
			st.msgs[len(st.senders)] = st.msgs[i]
			st.senders = append(st.senders, id)
		}
	}
	st.senderMsgs = st.msgs[:len(st.senders)]

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
	if st.recvBuf != nil {
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

// each runs phase p over every process index: inline, or sharded over the
// pool. pool.Run's channel handshake orders the phase write before any
// worker's read, so one pool and one barrier serve every phase.
func (st *runState) each(p phase) {
	st.phase = p
	if st.pool != nil {
		st.pool.Run(len(st.procs))
	} else {
		st.runPhase(0, len(st.procs))
	}
}

// runPhase runs the open phase over process indices [lo, hi). Per-process
// steps are independent, so the pool runs disjoint ranges concurrently.
func (st *runState) runPhase(lo, hi int) {
	switch st.phase {
	case phaseMessage:
		st.message(lo, hi)
	case phasePlan:
		st.fill(lo, hi)
	default:
		st.deliver(lo, hi)
	}
}

// message runs the msg function (Definition 1) of processes [lo, hi). A
// live automaton's message lands in its own msgs slot, and sendOrd marks it
// a sender (0) or silent (-1) until the gather numbers the senders. The
// slots hold values, not pointers, so the stores need no write barrier.
func (st *runState) message(lo, hi int) {
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

// deliver runs the delivery phase of processes [lo, hi): receive sets,
// collision advice, arena recording, and the automaton transitions.
func (st *runState) deliver(lo, hi int) {
	// Locals, so the inner loops read registers rather than the run state.
	r, row, plan, lost := st.r, st.row, st.plan, st.lost
	det, arena, perPair := st.det, st.arena, st.rowPlanner == nil
	senders, senderMsgs := st.senders, st.senderMsgs
	k := len(senders)
	for i := lo; i < hi; i++ {
		id := st.procs[i]
		if st.sched.CrashedForSend(i, r) {
			// A crashed process receives nothing; its advice is still part
			// of the formal CD trace and must be legal for the class, so it
			// is computed like any other process's.
			advice := det.Advise(r, id, k, 0)
			if arena != nil {
				arena.RecordCell(row, i, nil, advice, st.cm[i], true)
				if st.recvBuf != nil {
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
		own := st.sendOrd[i]
		recv := st.recvs[i]
		recv.Reset()
		for j := range senderMsgs {
			if lostRow == nil || !lostRow[j] || j == own {
				recv.Add(senderMsgs[j])
			}
		}
		advice := det.Advise(r, id, k, recv.Len())
		if arena != nil {
			var sentMsg *model.Message
			if own >= 0 {
				sentMsg = &senderMsgs[own]
			}
			arena.RecordCell(row, i, sentMsg, advice, st.cm[i], false)
			if st.recvBuf != nil {
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
func (st *runState) finish(rounds int) *Result {
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
	return &Result{
		Execution:  st.exec,
		Rounds:     rounds,
		Decisions:  st.exec.Decisions,
		AllDecided: allDecided,
	}
}

// release stops the shard workers and returns the receive sets to their
// pool. Run defers it, so a stopped or panicking run releases too.
func (st *runState) release() {
	if st.pool != nil {
		st.pool.Close()
	}
	for _, rs := range st.recvs {
		rs.Reset()
		recvPool.Put(rs)
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
// initial value (consensus property 2, strong form).
func CheckStrongValidity(res *Result) error {
	initials := make(map[model.Value]bool, len(res.Execution.Initial))
	for _, v := range res.Execution.Initial {
		initials[v] = true
	}
	for id, d := range res.Decisions {
		if !initials[d.Value] {
			return fmt.Errorf("strong validity violated: process %d decided %d, not any process's initial value",
				id, uint64(d.Value))
		}
	}
	return nil
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
