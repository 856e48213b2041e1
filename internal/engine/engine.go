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
// The round loop is built for near-zero steady-state allocation: all
// per-process state (crash schedule, contention advice, broadcasts, halted
// and decided flags) lives in dense slices indexed by a sorted process
// table built once per run, and receive multisets are drawn from a
// sync.Pool and reset in place between rounds — in both trace modes. The
// delivery loop reads each receiver's loss row by index: a
// loss.ConcurrentPlanner hands over the round's loss matrix (PlanRows), and
// for any other adversary the loop copies Plan's DeliveryFunc answers into
// one reusable row, receivers and senders ascending, so stateful
// adversaries see the same call sequence either way. With
// Config.Trace set to TraceDecisionsOnly nothing is recorded per round.
// TraceFull (the default) records every view into a columnar
// model.TraceArena — flat per-field columns plus a shared receive arena —
// so full traces are also allocation-free in steady state; views are
// materialized lazily by the model package's accessors. Both modes produce
// identical decisions because they drive the detector, manager, and
// adversary through identical call sequences.
//
// # Parallel delivery
//
// For large systems the per-round delivery loop (receive-set construction,
// detector advice, automaton transition — the O(n·senders) inner loop) can
// be sharded across a bounded worker pool via Config.DeliveryWorkers. The
// shard split is a pure function of (n, workers) and every per-process step
// is independent, so decisions and recorded traces are byte-identical to
// the sequential path at any worker count. The parallel path engages only
// when every randomized component is order-independent (the detector's
// behavior is a detector.ConcurrentBehavior and the adversary passes
// loss.ConcurrentSafe — true for all honest/minimal/maxnoise detectors and
// the built-in channel models) and the system has at least
// Config.DeliveryMinProcs processes (Calibrate().MinProcs when that is
// unset); otherwise it silently falls back to the sequential loop.
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
	// Result's Execution has Procs, Initial, and Decisions but no Rounds.
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

// runState holds every per-run buffer of the hot loop, so steady-state
// rounds allocate only what the trace requires. All slices are indexed by
// the process's position in the sorted procs table.
type runState struct {
	procs []model.ProcessID // sorted process table
	autos []model.Automaton
	dec   []model.Decider // nil where the automaton never decides
	sched model.DenseSchedule

	halted  []bool
	decided []bool

	cm         []model.CMAdvice    // this round's contention advice
	sendOrd    []int               // procs[i]'s position in senders, -1 if silent
	senders    []model.ProcessID   // this round's broadcasters, sorted
	senderMsgs []model.Message     // senders' messages, parallel to senders
	msgs       []*model.Message    // per-index Message results (parallel path only)
	recvs      []*model.RecvSet    // pooled receive sets, reset every round
	recvBuf    [][]model.RecvEntry // per-process arena snapshots (TraceFull)
	planRow    []bool              // one receiver's loss row, for Plan-only adversaries
}

// newRunState builds the sorted process-index table and the dense per-run
// buffers.
func newRunState(cfg *Config) *runState {
	n := len(cfg.Procs)
	st := &runState{
		procs:      make([]model.ProcessID, 0, n),
		autos:      make([]model.Automaton, n),
		dec:        make([]model.Decider, n),
		halted:     make([]bool, n),
		decided:    make([]bool, n),
		cm:         make([]model.CMAdvice, n),
		sendOrd:    make([]int, n),
		senders:    make([]model.ProcessID, 0, n),
		senderMsgs: make([]model.Message, 0, n),
	}
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

// Run executes the configured system and returns the recorded execution.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Procs) == 0 {
		return nil, fmt.Errorf("engine: no processes configured")
	}
	det := cfg.Detector
	if det == nil {
		det = detector.New(detector.AC)
	}
	manager := cfg.CM
	if manager == nil {
		manager = cm.NoCM{}
	}
	adversary := cfg.Loss
	if adversary == nil {
		adversary = loss.None{}
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}

	st := newRunState(&cfg)
	denseCM, _ := manager.(cm.DenseAdviser)
	observer, _ := manager.(cm.Observer)
	traceFull := cfg.Trace == TraceFull

	exec := model.NewExecution(st.procs, cfg.Initial)
	workers := resolveDeliveryWorkers(&cfg, len(st.procs), det, adversary)
	parallel := workers > 1
	// A row planner hands each round's loss matrix to the delivery loop.
	// Any other adversary answers per pair through Plan's DeliveryFunc,
	// which the loop copies into one reusable row per receiver.
	var rowPlanner loss.ConcurrentPlanner
	if loss.ConcurrentSafe(adversary) {
		rowPlanner = adversary.(loss.ConcurrentPlanner)
	} else {
		st.planRow = make([]bool, len(st.procs))
	}
	var arena *model.TraceArena
	if traceFull {
		// Acquired from the shape-keyed reuse pool: callers that digest the
		// trace and call Execution.Release recycle the columns run to run.
		arena = model.AcquireTraceArena(len(st.procs), maxRounds)
		exec.Arena = arena
		if parallel {
			// Shard workers snapshot receive sets into per-process buffers;
			// the sequential path appends straight into the arena instead.
			st.recvBuf = make([][]model.RecvEntry, len(st.procs))
		}
	}
	st.recvs = make([]*model.RecvSet, len(st.procs))
	for i := range st.recvs {
		st.recvs[i] = recvPool.Get().(*model.RecvSet)
	}
	defer func() {
		for _, rs := range st.recvs {
			rs.Reset()
			recvPool.Put(rs)
		}
	}()

	// A halted (decided) process no longer contends for the channel, so the
	// contention manager treats it like a crashed one — a backoff
	// implementation would observe the same thing. The closure reads the
	// loop's round variable, so it is allocated once per run.
	var (
		r        int
		row      int               // open arena row (TraceFull)
		plan     loss.DeliveryFunc // this round's plan, from a Plan-only adversary
		lost     []bool            // this round's loss matrix, from a row planner
		planFill func(lo, hi int)  // this round's shard-parallel matrix filler
	)
	aliveForCM := func(id model.ProcessID) bool {
		i, ok := st.position(id)
		return ok && !st.sched.CrashedForSend(i, r) && !st.halted[i]
	}

	// deliver performs the per-process half of a round's delivery phase for
	// process indices [lo, hi): receive-set construction, detector advice,
	// arena recording, and the automaton transition. Every index is
	// independent of every other — the shard pool runs disjoint ranges
	// concurrently — and the closure captures only run-level variables, so
	// it is allocated once per run.
	deliver := func(lo, hi int) {
		// Copy the by-reference captures into locals so the inner loops read
		// registers, not the closure environment.
		r, row, plan, lost := r, row, plan, lost
		senders, senderMsgs := st.senders, st.senderMsgs
		k := len(senders)
		for i := lo; i < hi; i++ {
			id := st.procs[i]
			if st.sched.CrashedForSend(i, r) {
				// A crashed process receives nothing; its advice is still
				// part of the formal CD trace and must be legal for the
				// class, so it is computed like any other process's.
				advice := det.Advise(r, id, len(senders), 0)
				if traceFull {
					arena.RecordCell(row, i, nil, advice, st.cm[i], true)
					if parallel {
						st.recvBuf[i] = st.recvBuf[i][:0]
					} else {
						arena.FinishCellRecv(nil)
					}
				}
				continue
			}
			// Receiver i's loss row: the planner's matrix row, or one filled
			// from the DeliveryFunc in the order stateful Plan-only
			// adversaries rely on (senders ascending, no self-pair). A nil
			// row loses nothing; a broadcaster always hears itself.
			var lostRow []bool
			if rowPlanner == nil {
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
			advice := det.Advise(r, id, len(senders), recv.Len())
			if traceFull {
				var sentMsg *model.Message
				if st.sendOrd[i] >= 0 {
					sentMsg = &senderMsgs[st.sendOrd[i]]
				}
				arena.RecordCell(row, i, sentMsg, advice, st.cm[i], false)
				if parallel {
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
	// genMessages performs the per-process half of message generation for
	// indices [lo, hi): each automaton's Message call writes its own msgs
	// slot, so disjoint ranges are independent and the shard pool runs them
	// concurrently. The ordered sender gather stays sequential on the
	// coordinator, so the senders table is byte-identical to the
	// sequential path's.
	genMessages := func(lo, hi int) {
		r := r
		for i := lo; i < hi; i++ {
			st.msgs[i] = nil
			if st.sched.CrashedForSend(i, r) || st.halted[i] {
				continue
			}
			st.msgs[i] = st.autos[i].Message(r, st.cm[i])
		}
	}

	// The pool runs one phase at a time — message generation, plan fill,
	// delivery — dispatched through a coordinator-owned phase variable.
	// Run's channel handshake orders the coordinator's phase write before
	// any worker's read, so a single pool (and one barrier discipline)
	// serves all three phases.
	const (
		phaseDeliver = iota
		phaseMessage
		phasePlan
	)
	phase := phaseDeliver
	var pool *shardPool
	if parallel {
		st.msgs = make([]*model.Message, len(st.procs))
		pool = newShardPool(workers, func(lo, hi int) {
			switch phase {
			case phaseMessage:
				genMessages(lo, hi)
			case phasePlan:
				planFill(lo, hi)
			default:
				deliver(lo, hi)
			}
		})
		defer pool.Close()
	}

	rounds := 0
	for r = 1; r <= maxRounds; r++ {
		if cfg.Stop != nil && cfg.Stop.Load() {
			return nil, fmt.Errorf("engine: stopped before round %d: %w", r, ErrStopped)
		}
		rounds = r
		if denseCM != nil {
			denseCM.AdviseInto(r, st.procs, aliveForCM, st.cm)
		} else {
			advice := manager.Advise(r, st.procs, aliveForCM)
			for i, id := range st.procs {
				st.cm[i] = advice[id]
			}
		}

		// Message generation (the msg function of Definition 1). Iterating
		// the sorted table keeps senders sorted with no extra pass. On the
		// parallel path the Message calls shard across the pool and only the
		// ordered gather stays sequential; the automata are per-process
		// state machines (the same independence delivery already relies on),
		// so the gathered sender table is identical either way.
		st.senders = st.senders[:0]
		st.senderMsgs = st.senderMsgs[:0]
		if pool != nil {
			phase = phaseMessage
			pool.Run(len(st.procs))
			for i, id := range st.procs {
				st.sendOrd[i] = -1
				if m := st.msgs[i]; m != nil {
					st.sendOrd[i] = len(st.senders)
					st.senders = append(st.senders, id)
					st.senderMsgs = append(st.senderMsgs, *m)
				}
			}
		} else {
			for i, id := range st.procs {
				st.sendOrd[i] = -1
				if st.sched.CrashedForSend(i, r) || st.halted[i] {
					continue
				}
				if m := st.autos[i].Message(r, st.cm[i]); m != nil {
					st.sendOrd[i] = len(st.senders)
					st.senders = append(st.senders, id)
					st.senderMsgs = append(st.senderMsgs, *m)
				}
			}
		}

		// Adversary planning. A row planner returns its loss matrix with a
		// row filler, which shards across the pool when there is one (nil
		// fill — constant plans, v1 schedules — means the matrix is already
		// complete); a Plan-only adversary returns its DeliveryFunc.
		if rowPlanner != nil {
			var fill func(lo, hi int)
			fill, lost = rowPlanner.PlanRows(r, st.senders, st.procs)
			switch {
			case fill == nil:
			case pool != nil:
				planFill = fill
				phase = phasePlan
				pool.Run(len(st.procs))
			default:
				fill(0, len(st.procs))
			}
		} else {
			plan = adversary.Plan(r, st.senders, st.procs)
		}

		// Delivery, collision advice, arena recording, and state
		// transitions: sequential, or sharded over the pool for large
		// systems. Both paths run the identical deliver body over the same
		// index order semantics, so they produce identical executions.
		if traceFull {
			row = arena.BeginRound(r, len(st.senders))
		}
		if pool != nil {
			phase = phaseDeliver
			pool.Run(len(st.procs))
		} else {
			deliver(0, len(st.procs))
		}
		if traceFull && parallel {
			// Receive segments merge into the shared arena in process order
			// regardless of which worker built them, keeping the recorded
			// trace deterministic (the sequential path finished each cell
			// inline).
			for i := range st.procs {
				arena.FinishCellRecv(st.recvBuf[i])
			}
		}

		if observer != nil {
			observer.Observe(r, len(st.senders))
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
				exec.Decisions[id] = model.Decision{Value: v, Round: r}
			}
			if d.Halted() {
				st.halted[i] = true
			}
			if !st.decided[i] {
				allDone = false
			}
		}
		if allDone && !cfg.RunFullHorizon {
			break
		}
	}

	// Final sweep: the same liveness rule as the in-loop bookkeeping — only
	// processes that actually crashed within the executed prefix are exempt
	// from deciding.
	allDecided := true
	for i := range st.procs {
		if st.sched.CrashedDuring(i, rounds) {
			continue
		}
		if !st.decided[i] {
			allDecided = false
			break
		}
	}
	// Telemetry publishes once per run, not per round: when disabled every
	// call below is a nil-receiver no-op, and even when enabled the round
	// loop itself stays untouched.
	em := telemetry.Engine()
	em.Runs.Inc()
	em.Rounds.Add(uint64(rounds))
	if parallel {
		em.RoundsParallel.Add(uint64(rounds))
		dispatches, shards := pool.Stats()
		em.PoolDispatches.Add(dispatches)
		em.PoolShards.Add(shards)
	} else {
		em.RoundsSequential.Add(uint64(rounds))
	}

	return &Result{
		Execution:  exec,
		Rounds:     rounds,
		Decisions:  exec.Decisions,
		AllDecided: allDecided,
	}, nil
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
