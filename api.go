package adhocconsensus

import (
	"context"
	"fmt"
	"strings"
	"time"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/stats"
)

// Value is a consensus input/decision value: an index into the value domain
// {0, ..., Domain-1}.
type Value = model.Value

// ProcessID identifies a process (1-based in reports).
type ProcessID = model.ProcessID

// Algorithm selects one of the paper's consensus algorithms. String is its
// display name.
type Algorithm = sim.Algorithm

// The four algorithms of Section 7.
const (
	// AlgorithmPropose is Algorithm 1: alternating propose/veto rounds,
	// constant-time after stabilization; requires a majority-complete
	// eventually-accurate detector (maj-◇AC) and eventual collision
	// freedom.
	AlgorithmPropose = sim.AlgPropose
	// AlgorithmBitByBit is Algorithm 2: one round per value bit; works
	// with the weakest useful detector (0-◇AC) under eventual collision
	// freedom; O(lg|V|) rounds after stabilization.
	AlgorithmBitByBit = sim.AlgBitByBit
	// AlgorithmTreeWalk is Algorithm 3: lockstep walk of a BST over the
	// value domain; requires an always-accurate zero-complete detector
	// (0-AC) but NO message delivery guarantee and no contention manager.
	AlgorithmTreeWalk = sim.AlgTreeWalk
	// AlgorithmLeaderRelay is the §7.3 non-anonymous algorithm: elect a
	// leader over the (small) identifier space by Algorithm 2, then relay
	// the leader's value; O(min{lg|V|, lg|I|}) rounds.
	AlgorithmLeaderRelay = sim.AlgLeaderRelay
)

// DetectorClass re-exports the collision detector classes of Figure 1.
type DetectorClass = detector.Class

// The detector classes (completeness × accuracy). See Figure 1 of the
// paper; DetectorAuto picks the weakest class the chosen algorithm
// tolerates.
var (
	DetectorAC      = detector.AC
	DetectorMajAC   = detector.MajAC
	DetectorHalfAC  = detector.HalfAC
	DetectorZeroAC  = detector.ZeroAC
	DetectorOAC     = detector.OAC
	DetectorMajOAC  = detector.MajOAC
	DetectorHalfOAC = detector.HalfOAC
	DetectorZeroOAC = detector.ZeroOAC
)

// ContentionMode selects the contention manager.
type ContentionMode = sim.CMMode

// Contention manager choices.
const (
	// ContentionAuto picks what the algorithm expects: a wake-up service
	// for Algorithms 1/2 and leader-relay, none for the tree walk.
	ContentionAuto = sim.CMAuto
	// ContentionWakeUp stabilizes to one (rotating) active process at
	// round Stable.
	ContentionWakeUp = sim.CMWakeUp
	// ContentionLeader stabilizes to one fixed active process at Stable.
	ContentionLeader = sim.CMLeader
	// ContentionBackoff runs the binary-exponential-backoff substrate; the
	// stabilization round is then probabilistic.
	ContentionBackoff = sim.CMBackoff
	// ContentionNone advises everyone active every round.
	ContentionNone = sim.CMNone
)

// LossMode selects the channel's loss behavior.
type LossMode = sim.LossMode

// Channel loss models.
const (
	// LossNone delivers everything.
	LossNone = sim.LossNone
	// LossProbabilistic drops each delivery independently with probability
	// P (the 20–50% regimes of the empirical studies in §1.1).
	LossProbabilistic = sim.LossProbabilistic
	// LossCapture models the capture effect: in a collision each receiver
	// locks onto at most one transmission.
	LossCapture = sim.LossCapture
	// LossDrop loses every cross-process message forever (the no-ECF
	// environment of Algorithm 3).
	LossDrop = sim.LossDrop
)

// Seed-schedule versions: how a trial's seed expands into the per-round
// random draws of the loss adversaries (and only those — detector noise and
// backoff are unaffected). See the package documentation's "Seed schedules"
// section.
const (
	// SeedScheduleV1 is the historical sequential schedule: one generator
	// per adversary, advanced draw by draw in receiver-major order. The
	// default; byte-identical to every recording made before schedules were
	// versioned.
	SeedScheduleV1 = 1
	// SeedScheduleV2 is the counter-based schedule: each (trial seed, round,
	// receiver) keys an independent splitmix64 stream, so loss rows can be
	// drawn in any order — including in parallel across delivery workers —
	// with byte-identical results. Draws differ from v1, so v1 and v2
	// recordings of the same seed are distinct experiments.
	SeedScheduleV2 = 2
)

// DeliveryWorkersAuto, assigned to Config.DeliveryWorkers, sizes the
// delivery worker pool from a one-time startup calibration of this host
// (shard-barrier cost vs per-row fill cost) instead of a fixed constant.
const DeliveryWorkersAuto = engine.DeliveryWorkersAuto

// Crash schedules a permanent crash failure.
type Crash struct {
	Process   ProcessID
	Round     int
	AfterSend bool // crash after broadcasting in Round rather than before
}

// Config assembles a consensus run. Zero values select sensible defaults:
// an honest detector of the weakest class the algorithm tolerates, a
// wake-up service stable from round 1 (when the algorithm uses one), a
// lossless channel with ECF from round 1, and 100k max rounds.
type Config struct {
	// Algorithm picks the protocol. Required.
	Algorithm Algorithm
	// Values holds each process's initial value; len(Values) is the number
	// of processes. Required, non-empty.
	Values []Value
	// Domain is |V|. Defaults to max(Values)+1.
	Domain uint64
	// IDs are unique identifiers for AlgorithmLeaderRelay (defaults to
	// distinct indices drawn from IDSpace).
	IDs []Value
	// IDSpace is |I| for AlgorithmLeaderRelay. Defaults to 2^48 (MAC-like).
	IDSpace uint64

	// DetectorClass overrides the detector class (zero value = auto).
	DetectorClass DetectorClass
	// DetectorRace is the first accurate round for eventually-accurate
	// classes. Defaults to 1.
	DetectorRace int
	// FalsePositiveRate makes the detector report spurious collisions with
	// this probability whenever its class allows (before DetectorRace).
	FalsePositiveRate float64

	// Contention selects the manager; Stable is its stabilization round
	// (default 1).
	Contention ContentionMode
	Stable     int

	// Loss selects the channel model; LossP parameterizes it. ECFRound is
	// the round from which a lone broadcaster is always heard (default 1;
	// set 0 to disable ECF — required honest for AlgorithmTreeWalk only).
	Loss     LossMode
	LossP    float64
	ECFRound int

	// Crashes schedules failures.
	Crashes []Crash

	// Seed drives every random component (loss, noise, backoff).
	Seed int64
	// SeedSchedule selects how Seed expands into the loss adversary's
	// per-round draws: SeedScheduleV1 (the default; 0 means v1) or
	// SeedScheduleV2's order-free counter streams. The version is part of a
	// recording's identity — fingerprints differ between schedules and
	// mixed-schedule shard sets are rejected at merge.
	SeedSchedule int
	// MaxRounds bounds the run (default 100000).
	MaxRounds int
	// TrialTimeout, when positive, bounds each trial of RunTrials and
	// StreamTrials by wall-clock time: a watchdog stops a runaway trial at
	// its next round boundary and the trial is reported with a
	// deterministic deadline error instead of blocking the run forever.
	// Single runs via Run are not bounded.
	TrialTimeout time.Duration
	// ResultSink, when set, receives the digested outcome of every trial of
	// RunTrials/StreamTrials as it completes, in trial order — stream
	// per-trial data out (JSONL, another machine, live dashboards) instead
	// of keeping only the aggregate. Single runs via Run do not use it.
	ResultSink ResultSink
	// UseGoroutines only tags streamed records: it is kept in their
	// parameters (the "goroutines" key), so recordings made with it keep
	// their fingerprints and still merge, resume, and replay. Execution and
	// the Report are identical either way.
	//
	// Deprecated: every run executes on the engine; the flag has no effect
	// on execution.
	UseGoroutines bool
	// DeliveryWorkers shards each round's delivery inner loop across up to
	// this many goroutines — intra-run parallelism for large networks,
	// complementing the cross-trial parallelism of RunTrials. 0 or 1 runs
	// sequentially; DeliveryWorkersAuto sizes the pool from a startup
	// calibration of this host. Results are byte-identical at any worker
	// count: the engine auto-falls back to the sequential loop for small
	// systems (below a calibrated threshold) and for order-dependent
	// components (a detector with FalsePositiveRate noise draws its false
	// positives sequentially). Under SeedScheduleV2 the adversary's plan
	// itself is also filled by the same pool.
	DeliveryWorkers int
	// TraceDecisionsOnly skips recording per-round views: the Report's
	// Execution carries decisions but no Rounds, and the run is several
	// times faster and nearly allocation-free. Decisions, rounds, and the
	// agreed value are identical to a full-trace run. Leave false when the
	// execution itself will be inspected or validated.
	TraceDecisionsOnly bool
}

// Report is the outcome of a consensus run.
type Report struct {
	// Agreed is the decided value (valid when Decided is true).
	Agreed Value
	// Decided reports whether all correct processes decided.
	Decided bool
	// Rounds is the number of rounds executed.
	Rounds int
	// Decisions maps each decided process to its value and decision round.
	Decisions map[ProcessID]Decision
	// Execution exposes the recorded execution for inspection. Under
	// Config.TraceDecisionsOnly it has no per-round views.
	Execution *model.Execution
}

// Decision re-exports the per-process decision record.
type Decision = model.Decision

// Run executes the configured system.
func (c Config) Run() (*Report, error) {
	scenario, err := c.toScenario()
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(scenario)
	if err != nil {
		return nil, apiErr(err)
	}
	report := &Report{
		Decided:   res.AllDecided,
		Rounds:    res.Rounds,
		Decisions: res.Decisions,
		Execution: res.Execution,
	}
	if vals := res.Execution.DecidedValues(); len(vals) == 1 {
		report.Agreed = vals[0]
	} else if len(vals) > 1 {
		return nil, fmt.Errorf("adhocconsensus: agreement violated (%v) — the environment is outside the algorithm's requirements", vals)
	}
	return report, nil
}

// toScenario translates the public configuration into the internal
// declarative scenario the sweep engine executes. The translation is
// one-to-one: every default and seed offset matches the pre-sim builder,
// so a Config reproduces its historical executions bit for bit.
func (c Config) toScenario() (sim.Scenario, error) {
	if c.Algorithm < AlgorithmPropose || c.Algorithm > AlgorithmLeaderRelay {
		return sim.Scenario{}, fmt.Errorf("adhocconsensus: unknown algorithm %v", c.Algorithm)
	}
	if c.Contention < ContentionAuto || c.Contention > ContentionNone {
		return sim.Scenario{}, fmt.Errorf("adhocconsensus: unknown contention mode %d", c.Contention)
	}
	if c.Loss < LossNone || c.Loss > LossDrop {
		return sim.Scenario{}, fmt.Errorf("adhocconsensus: unknown loss mode %d", c.Loss)
	}

	crashes := make(model.Schedule, len(c.Crashes))
	for _, cr := range c.Crashes {
		when := model.CrashBeforeSend
		if cr.AfterSend {
			when = model.CrashAfterSend
		}
		crashes[cr.Process] = model.Crash{Round: cr.Round, Time: when}
	}

	trace := engine.TraceFull
	if c.TraceDecisionsOnly {
		trace = engine.TraceDecisionsOnly
	}
	return sim.Scenario{
		Algorithm:         c.Algorithm,
		Values:            c.Values,
		Domain:            c.Domain,
		IDs:               c.IDs,
		IDSpace:           c.IDSpace,
		Detector:          c.DetectorClass,
		Race:              c.DetectorRace,
		FalsePositiveRate: c.FalsePositiveRate,
		CM:                c.Contention,
		Stable:            c.Stable,
		Loss:              c.Loss,
		LossP:             c.LossP,
		ECFRound:          c.ECFRound,
		Crashes:           crashes,
		MaxRounds:         c.MaxRounds,
		Trace:             trace,
		DeliveryWorkers:   c.DeliveryWorkers,
		UseGoroutines:     c.UseGoroutines,
		Seed:              c.Seed,
		SeedSchedule:      c.SeedSchedule,
	}, nil
}

// apiErr rewrites internal sim errors into this package's public prefix,
// preserving the error contract Config.Run has always had. The original
// error stays on the chain, so errors.Is/As classification (context
// cancellation, deadline quarantines, sink failures) survives the rewrite.
func apiErr(err error) error {
	if err == nil {
		return nil
	}
	if msg, ok := strings.CutPrefix(err.Error(), "sim: "); ok {
		return &wrappedErr{msg: "adhocconsensus: " + msg, err: err}
	}
	return err
}

// wrappedErr re-prefixes a message without truncating the error chain.
type wrappedErr struct {
	msg string
	err error
}

func (e *wrappedErr) Error() string { return e.msg }

func (e *wrappedErr) Unwrap() error { return e.err }

// TrialResult is the digested outcome of one trial of a multi-trial run:
// everything RunTrials aggregates, per trial, plus the provenance needed to
// re-run the trial standalone — its derived seed (pass it as Config.Seed to
// a single Run for a byte-identical execution) and the configuration
// fingerprint that names the environment it ran in.
type TrialResult struct {
	// Trial is the trial's index in the full run (global across shards).
	Trial int
	// Seed is the trial's derived seed: splitmix64(Config.Seed, 0, Trial).
	Seed int64
	// Fingerprint identifies the configuration — every parameter plus the
	// base Config.Seed, but not the per-trial seed — so all trials of one
	// Config share it, and shard files from different configurations or
	// base seeds cannot be merged.
	Fingerprint string

	// Rounds is the number of rounds executed.
	Rounds int
	// Decided reports whether every correct process decided.
	Decided bool
	// Decisions is the number of processes that decided.
	Decisions int
	// DecidedValues is the sorted set of distinct decided values (one entry
	// means agreement; more than one, an agreement violation).
	DecidedValues []Value
	// LastDecisionRound is the latest round at which any process decided.
	LastDecisionRound int

	// AgreementOK, ValidityOK (strong validity), and TerminationOK report
	// the consensus property checks for this trial; TerminationOK exempts
	// crashed processes.
	AgreementOK   bool
	ValidityOK    bool
	TerminationOK bool

	// Err is the trial's quarantine record: non-empty when the trial
	// panicked (the message, without the stack), overran
	// Config.TrialTimeout, or failed to execute. All digest fields above
	// are zero then. The run itself continues past errored trials; the
	// first per-trial error is also returned after the sweep completes.
	Err string
}

// ResultSink consumes per-trial results as a multi-trial run produces
// them. Results arrive strictly in ascending trial order and Consume is
// never called concurrently, so implementations need no locking. A Consume
// error aborts the run.
type ResultSink interface {
	Consume(r TrialResult) error
}

// TrialStats aggregates a multi-trial run of one configuration.
type TrialStats struct {
	// Trials is the number of executed trials.
	Trials int
	// Decided counts trials in which every correct process decided.
	Decided int
	// Agreements counts trials by their (single) agreed value.
	Agreements map[Value]int
	// AgreementViolations counts trials that decided more than one value
	// (possible only when the environment is outside the algorithm's
	// requirements).
	AgreementViolations int
	// MinRounds/MeanRounds/MedianRounds/P95Rounds/MaxRounds summarize the
	// executed round counts across trials.
	MinRounds    int
	MaxRounds    int
	MeanRounds   float64
	MedianRounds float64
	P95Rounds    float64
}

// RunTrials executes the configuration `trials` times on a parallel worker
// pool (workers <= 0 selects GOMAXPROCS) and aggregates the outcomes. Each
// trial runs with its own deterministically derived seed — a splitmix64 mix
// of Config.Seed and the trial index — so results are reproducible and
// byte-identical for any worker count. Per-round traces are not recorded;
// use Run for a single fully traced execution. When Config.ResultSink is
// set, every per-trial result additionally streams into it, in order.
func (c Config) RunTrials(trials, workers int) (*TrialStats, error) {
	return c.RunTrialsContext(context.Background(), trials, workers)
}

// RunTrialsContext is RunTrials with cooperative cancellation: once ctx is
// done, no new trials start, in-flight trials finish, and the error wraps
// ctx's error (classify with errors.Is). Trials already completed are not
// aggregated — a canceled aggregate would be statistics over an arbitrary
// prefix.
func (c Config) RunTrialsContext(ctx context.Context, trials, workers int) (*TrialStats, error) {
	if trials < 1 {
		trials = 1
	}
	collected := make([]TrialResult, 0, trials)
	// StreamTrials tees Config.ResultSink in before the explicit sink.
	if err := c.StreamTrialsContext(ctx, trials, workers, 0, 1, collectSink{&collected}); err != nil {
		return nil, err
	}
	return TrialStatsOf(collected), nil
}

// collectSink gathers results in memory.
type collectSink struct {
	results *[]TrialResult
}

func (s collectSink) Consume(r TrialResult) error {
	*s.results = append(*s.results, r)
	return nil
}

// StreamTrials executes the shard-of-shards subset of a `trials`-trial run
// (every trial index congruent to shard mod shards; pass 0, 1 for the whole
// run) on a parallel worker pool, streaming each trial's digested result
// into the sink in ascending trial order. Trial seeds depend only on
// Config.Seed and the GLOBAL trial index, so the union of the k shard
// streams is byte-identical to the single-machine run's stream at any
// worker or shard count: aggregate the merged results with TrialStatsOf and
// the statistics match RunTrials exactly. When Config.ResultSink is also
// set, each result is delivered to it first, then to out. cmd/sweeprun
// drives this for multi-machine sweeps.
//
// A trial that panics or overruns Config.TrialTimeout does not stop the
// stream: it is delivered as a quarantine result (TrialResult.Err set,
// digest fields zero) in its ordered slot, and the first such per-trial
// error is returned after every trial has run.
func (c Config) StreamTrials(trials, workers, shard, shards int, out ResultSink) error {
	return c.StreamTrialsContext(context.Background(), trials, workers, shard, shards, out)
}

// StreamTrialsContext is StreamTrials with cooperative cancellation: once
// ctx is done the sweep stops claiming trials, drains the ones in flight,
// delivers the contiguous completed prefix to the sink, and returns an
// error wrapping ctx's error — so the delivered stream remains a valid
// resumable prefix of the full run.
func (c Config) StreamTrialsContext(ctx context.Context, trials, workers, shard, shards int, out ResultSink) error {
	return c.StreamTrialsFrom(ctx, trials, workers, shard, shards, 0, out)
}

// CheckTrials reports the configuration error StreamTrials would return
// before running any trial, and nil for a configuration whose trials can
// run: a planner (sweepd's admission, sweeprun's plan) calls it to refuse a
// sweep before creating its output.
func (c Config) CheckTrials() error {
	_, err := c.trialsBase()
	return err
}

// trialsBase returns the decisions-only scenario every trial of a sweep
// starts from, checked once up front (Scenario.Check finds every error
// Materialize would) so that configuration errors surface with the public
// prefix instead of wrapped in per-trial sweep context.
func (c Config) trialsBase() (sim.Scenario, error) {
	c.TraceDecisionsOnly = true
	base, err := c.toScenario()
	if err != nil {
		return sim.Scenario{}, err
	}
	if err := base.Check(); err != nil {
		return sim.Scenario{}, apiErr(err)
	}
	return base, nil
}

// StreamTrialsFrom is StreamTrialsContext resuming at the shard's skip-th
// trial: the first skip trials of the shard — ascending global indices
// congruent to shard mod shards — are assumed durable (typically salvaged
// from a partially written shard file) and are not re-executed. Trial seeds
// depend only on the global index, so the results streamed here, appended
// after the durable prefix, reproduce the uninterrupted shard stream byte
// for byte. skip at or past the shard's length streams nothing and returns
// nil.
func (c Config) StreamTrialsFrom(ctx context.Context, trials, workers, shard, shards, skip int, out ResultSink) error {
	if out == nil {
		return fmt.Errorf("adhocconsensus: StreamTrials needs a sink")
	}
	if c.ResultSink != nil {
		out = teeSink{first: c.ResultSink, then: out}
	}
	if trials < 1 {
		trials = 1
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return fmt.Errorf("adhocconsensus: shard %d/%d out of range", shard, shards)
	}
	if skip < 0 {
		skip = 0
	}
	base, err := c.trialsBase()
	if err != nil {
		return err
	}
	baseParams := sink.ParamsOf(base)
	baseParams.SweepSeed = c.Seed // part of a sweep's identity, unlike trial seeds
	fingerprint := baseParams.Fingerprint()
	var shardTrials []sim.Trial
	if n := sim.ShardLen(trials, shard, shards); skip < n {
		shardTrials = make([]sim.Trial, 0, n-skip)
		for k := skip; k < n; k++ {
			t := shard + k*shards
			s := base
			s.Seed = sim.TrialSeed(c.Seed, 0, t)
			shardTrials = append(shardTrials, sim.Trial{Index: t, Scenario: s})
		}
	}
	runner := sim.Runner{Workers: workers, TrialTimeout: c.TrialTimeout}
	err = runner.SweepTrialsToCtx(ctx, shardTrials, trialAdapter{sink: out, fingerprint: fingerprint})
	return apiErr(err)
}

// teeSink delivers every result to two sinks in order.
type teeSink struct {
	first, then ResultSink
}

func (s teeSink) Consume(r TrialResult) error {
	if err := s.first.Consume(r); err != nil {
		return err
	}
	return s.then.Consume(r)
}

// trialAdapter converts the internal per-trial digest into the public
// TrialResult on its way to the user sink.
type trialAdapter struct {
	sink        ResultSink
	fingerprint string
}

func (a trialAdapter) Consume(r sim.Result) error {
	if r.Err != nil {
		// Quarantine record: identity plus the error, zero digest. The
		// runner additionally surfaces the first per-trial error after the
		// sweep.
		return a.sink.Consume(TrialResult{
			Trial:       r.Index,
			Seed:        r.Seed,
			Fingerprint: a.fingerprint,
			Err:         r.Err.Error(),
		})
	}
	return a.sink.Consume(TrialResult{
		Trial:             r.Index,
		Seed:              r.Seed,
		Fingerprint:       a.fingerprint,
		Rounds:            r.Rounds,
		Decided:           r.AllDecided,
		Decisions:         r.Decisions,
		DecidedValues:     r.DecidedValues,
		LastDecisionRound: r.LastDecisionRound,
		AgreementOK:       r.AgreementOK,
		ValidityOK:        r.ValidityOK,
		TerminationOK:     r.TerminationOK,
	})
}

// ReplayReport is the outcome of forensically re-executing one recorded
// trial: a fresh full-trace run of the trial's derived seed, audited
// against the recorded digest and the formal model's execution legality
// constraints.
type ReplayReport struct {
	// Trial and Seed identify the re-executed trial.
	Trial int
	Seed  int64
	// Reasons says why ReplayFlagged selected the trial (empty for a direct
	// Replay call).
	Reasons []string
	// DigestOK reports that the fresh run reproduced the recorded outcome —
	// rounds, decisions, decided values, property verdicts — field for
	// field; Mismatch names the first divergence otherwise. A mismatch means
	// the record and this build disagree about the same seed: version skew,
	// a corrupted record, or nondeterminism, all worth alarm.
	DigestOK bool
	Mismatch string
	// TraceValid reports that the re-executed trace satisfies the execution
	// constraints of the formal model (integrity, self-delivery, fail-state
	// permanence); TraceError carries the violation otherwise.
	TraceValid bool
	TraceError string
	// Report is the fresh full-trace run, for further inspection. Call
	// Report.Execution.Release when done with its views to recycle the
	// trace arena.
	Report *Report
}

// OK reports a clean audit: digest reproduced and trace legal.
func (r *ReplayReport) OK() bool { return r.DigestOK && r.TraceValid }

// BundleText renders the report's forensic trace bundle — the provenance
// header (trial, seed, flag reasons, digest and legality verdicts) followed
// by the full per-round execution table — in exactly the format "sweeprun
// verify -bundle" writes for experiment records. Empty once the execution
// has been released.
func (r *ReplayReport) BundleText() string {
	if r.Report == nil || r.Report.Execution == nil || !r.Report.Execution.HasViews() {
		return ""
	}
	return replay.BundleText(&replay.Verification{
		Index:      r.Trial,
		Seed:       r.Seed,
		Reasons:    r.Reasons,
		DigestOK:   r.DigestOK,
		Mismatch:   r.Mismatch,
		TraceValid: r.TraceValid,
		TraceError: r.TraceError,
	}, r.Report.Execution)
}

// Replay forensically re-executes one recorded trial of this configuration:
// the trial's derived seed is re-run at full trace fidelity (regardless of
// Config.TraceDecisionsOnly) and the fresh execution is audited against the
// recorded digest and the model's legality constraints. The configuration
// must be the one that produced the trial — a fingerprint mismatch is
// rejected before anything runs.
func (c Config) Replay(r TrialResult) (*ReplayReport, error) {
	return c.replay(r, nil)
}

// ReplaySelector chooses which trials of a recorded multi-trial run
// ReplayFlagged audits.
type ReplaySelector struct {
	// Undecided selects trials in which not every correct process decided.
	Undecided bool
	// Violations selects trials that broke agreement or strong validity.
	Violations bool
	// TopSlowest selects the k trials with the highest round counts (ties
	// broken by trial index).
	TopSlowest int
}

// ReplayFlagged audits a recorded multi-trial run: it selects the anomalous
// trials (undecided, safety violations, round-count outliers) and replays
// each at full trace fidelity, returning one report per flagged trial in
// trial order. Records with mismatched fingerprints or seeds are rejected.
// The selection semantics are exactly internal/replay's FlagRecords — the
// same rules "sweeprun verify" applies to shard files.
func (c Config) ReplayFlagged(results []TrialResult, sel ReplaySelector) ([]*ReplayReport, error) {
	recs := make([]sink.Record, len(results))
	byTrial := make(map[int]TrialResult, len(results))
	for i, r := range results {
		recs[i] = sink.Record{
			Index:      r.Trial,
			Rounds:     r.Rounds,
			AllDecided: r.Decided,
			// FlagRecords reads only the digest verdict fields and the
			// quarantine error.
			AgreementOK: r.AgreementOK,
			ValidityOK:  r.ValidityOK,
			Err:         r.Err,
		}
		byTrial[r.Trial] = r
	}
	var out []*ReplayReport
	for _, f := range replay.FlagRecords(recs, replay.Selector{
		Undecided:  sel.Undecided,
		Violations: sel.Violations,
		TopSlowest: sel.TopSlowest,
	}) {
		rep, err := c.replay(byTrial[f.Rec.Index], f.Reasons)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// replay is the shared audit body of Replay and ReplayFlagged.
func (c Config) replay(r TrialResult, reasons []string) (*ReplayReport, error) {
	// The recorded stream ran decisions-only (multi-trial runs never record
	// views); fingerprints must be derived the same way StreamTrials derived
	// them, or the provenance check would reject every record.
	c.TraceDecisionsOnly = true
	base, err := c.toScenario()
	if err != nil {
		return nil, err
	}
	baseParams := sink.ParamsOf(base)
	baseParams.SweepSeed = c.Seed
	if fp := baseParams.Fingerprint(); r.Fingerprint != "" && r.Fingerprint != fp {
		return nil, fmt.Errorf("adhocconsensus: trial %d carries fingerprint %s, this configuration derives %s — recorded under a different configuration or version",
			r.Trial, r.Fingerprint, fp)
	}
	// Fingerprints exclude per-trial seeds; check the recorded seed against
	// this configuration's derivation directly (exactly as the grid replay
	// paths do), so a record regenerated at a foreign seed cannot pass off
	// its own execution as this sweep's.
	if want := sim.TrialSeed(c.Seed, 0, r.Trial); r.Seed != want {
		return nil, fmt.Errorf("adhocconsensus: trial %d ran with seed %d, this configuration derives %d — recorded under a different configuration or version",
			r.Trial, r.Seed, want)
	}
	sc := base
	sc.Seed = r.Seed
	recorded := sim.Result{
		Index:             r.Trial,
		Seed:              r.Seed,
		Rounds:            r.Rounds,
		AllDecided:        r.Decided,
		Decisions:         r.Decisions,
		DecidedValues:     r.DecidedValues,
		LastDecisionRound: r.LastDecisionRound,
		AgreementOK:       r.AgreementOK,
		ValidityOK:        r.ValidityOK,
		TerminationOK:     r.TerminationOK,
	}
	v, res := replay.ReExecuteScenarioKeep(recorded, sc, reasons, false)
	rep := &ReplayReport{
		Trial:      v.Index,
		Seed:       v.Seed,
		Reasons:    reasons,
		DigestOK:   v.DigestOK,
		Mismatch:   v.Mismatch,
		TraceValid: v.TraceValid,
		TraceError: v.TraceError,
	}
	if res == nil {
		return nil, fmt.Errorf("adhocconsensus: trial %d re-execution failed: %s", r.Trial, v.TraceError)
	}
	rep.Report = &Report{
		Decided:   res.AllDecided,
		Rounds:    res.Rounds,
		Decisions: res.Decisions,
		Execution: res.Execution,
	}
	if vals := res.Execution.DecidedValues(); len(vals) == 1 {
		rep.Report.Agreed = vals[0]
	}
	return rep, nil
}

// TrialStatsOf aggregates per-trial results — from RunTrials' own stream or
// merged back from sharded files — into the statistics RunTrials reports.
// The aggregation is order-independent except for Trials counting, so stats
// over a merged full set are byte-identical to the in-process run's.
func TrialStatsOf(results []TrialResult) *TrialStats {
	st := &TrialStats{Trials: len(results), Agreements: make(map[Value]int)}
	rounds := stats.NewCollector(len(results))
	for i, r := range results {
		rounds.Set(i, float64(r.Rounds))
		if r.Decided {
			st.Decided++
		}
		switch {
		case len(r.DecidedValues) == 1:
			st.Agreements[r.DecidedValues[0]]++
		case len(r.DecidedValues) > 1:
			st.AgreementViolations++
		}
	}
	sum := rounds.Summary()
	st.MinRounds = int(sum.Min)
	st.MaxRounds = int(sum.Max)
	st.MeanRounds = sum.Mean
	st.MedianRounds = sum.Median
	st.P95Rounds = sum.P95
	return st
}
