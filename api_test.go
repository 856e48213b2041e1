package adhocconsensus

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestRunRequiresValues(t *testing.T) {
	if _, err := (Config{Algorithm: AlgorithmPropose}).Run(); err == nil {
		t.Fatal("empty Values accepted")
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	if _, err := (Config{Values: []Value{1}}).Run(); err == nil {
		t.Fatal("zero algorithm accepted")
	}
}

func TestRunRejectsValueOutsideDomain(t *testing.T) {
	cfg := Config{Algorithm: AlgorithmBitByBit, Values: []Value{9}, Domain: 4}
	if _, err := cfg.Run(); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
}

func TestDefaultsSolveConsensus(t *testing.T) {
	for _, alg := range []Algorithm{
		AlgorithmPropose, AlgorithmBitByBit, AlgorithmTreeWalk, AlgorithmLeaderRelay,
	} {
		t.Run(alg.String(), func(t *testing.T) {
			report, err := Config{
				Algorithm: alg,
				Values:    []Value{3, 7, 7, 1},
				Domain:    16,
				MaxRounds: 5000,
			}.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !report.Decided {
				t.Fatal("not all processes decided")
			}
			want := map[Value]bool{3: true, 7: true, 1: true}
			if !want[report.Agreed] {
				t.Fatalf("agreed on %d, not an initial value", report.Agreed)
			}
			if len(report.Decisions) != 4 {
				t.Fatalf("decisions = %d, want 4", len(report.Decisions))
			}
		})
	}
}

func TestDomainDefaultsToMaxValue(t *testing.T) {
	report, err := Config{
		Algorithm: AlgorithmBitByBit,
		Values:    []Value{5, 11},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Agreed != 5 && report.Agreed != 11 {
		t.Fatalf("agreed on %d", report.Agreed)
	}
}

// TestUseGoroutinesLeavesReportUnchanged: the deprecated UseGoroutines flag
// only tags records, so a run with it set reports exactly what the same run
// without it reports — rounds, decisions, and the recorded execution.
func TestUseGoroutinesLeavesReportUnchanged(t *testing.T) {
	base := Config{
		Algorithm: AlgorithmBitByBit,
		Values:    []Value{4, 9, 2},
		Domain:    32,
		Loss:      LossProbabilistic,
		LossP:     0.3,
		ECFRound:  8,
		Stable:    8,
		Seed:      5,
	}
	plain, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	tagged := base
	tagged.UseGoroutines = true
	got, err := tagged.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != plain.Rounds || got.Agreed != plain.Agreed || got.Decided != plain.Decided ||
		!reflect.DeepEqual(got.Decisions, plain.Decisions) {
		t.Fatalf("UseGoroutines changed the report: %+v, want %+v", got, plain)
	}
	var pj, gj strings.Builder
	if err := plain.Execution.WriteJSON(&pj); err != nil {
		t.Fatal(err)
	}
	if err := got.Execution.WriteJSON(&gj); err != nil {
		t.Fatal(err)
	}
	if pj.String() != gj.String() {
		t.Fatal("UseGoroutines changed the recorded execution")
	}
}

func TestNoisyLossyRun(t *testing.T) {
	report, err := Config{
		Algorithm:         AlgorithmBitByBit,
		Values:            []Value{1, 2, 3, 4, 5},
		Domain:            64,
		Loss:              LossCapture,
		LossP:             0.4,
		ECFRound:          12,
		Stable:            12,
		DetectorRace:      12,
		FalsePositiveRate: 0.2,
		Seed:              42,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Decided {
		t.Fatal("did not decide after stabilization")
	}
}

func TestTreeWalkNoECF(t *testing.T) {
	report, err := Config{
		Algorithm: AlgorithmTreeWalk,
		Values:    []Value{12, 60, 33},
		Domain:    64,
		Loss:      LossDrop,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Decided {
		t.Fatal("tree walk failed under total loss")
	}
}

func TestCrashConfig(t *testing.T) {
	report, err := Config{
		Algorithm: AlgorithmPropose,
		Values:    []Value{5, 6, 7},
		Domain:    8,
		Stable:    4,
		Crashes:   []Crash{{Process: 1, Round: 2, AfterSend: true}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Decided {
		t.Fatal("survivors did not decide")
	}
	if _, ok := report.Decisions[1]; ok {
		t.Fatal("crashed process recorded a decision")
	}
}

func TestBackoffContention(t *testing.T) {
	report, err := Config{
		Algorithm:  AlgorithmBitByBit,
		Values:     []Value{9, 9, 2, 14},
		Domain:     16,
		Contention: ContentionBackoff,
		Seed:       3,
		MaxRounds:  5000,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Decided {
		t.Fatal("backoff-driven run did not decide")
	}
}

func TestLeaderRelayExplicitIDs(t *testing.T) {
	report, err := Config{
		Algorithm: AlgorithmLeaderRelay,
		Values:    []Value{100, 200, 300},
		Domain:    1 << 20,
		IDSpace:   8,
		IDs:       []Value{1, 4, 6},
		MaxRounds: 2000,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Decided {
		t.Fatal("leader relay did not decide")
	}
}

func TestLeaderRelayRejectsDuplicateIDs(t *testing.T) {
	_, err := Config{
		Algorithm: AlgorithmLeaderRelay,
		Values:    []Value{1, 2},
		Domain:    4,
		IDSpace:   8,
		IDs:       []Value{3, 3},
	}.Run()
	if err == nil || !strings.Contains(err.Error(), "duplicate ID") {
		t.Fatalf("duplicate IDs accepted: %v", err)
	}
}

func TestLeaderRelayRejectsIDCountMismatch(t *testing.T) {
	_, err := Config{
		Algorithm: AlgorithmLeaderRelay,
		Values:    []Value{1, 2},
		Domain:    4,
		IDs:       []Value{3},
	}.Run()
	if err == nil {
		t.Fatal("mismatched ID count accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmPropose, AlgorithmBitByBit, AlgorithmTreeWalk, AlgorithmLeaderRelay, Algorithm(99)} {
		if alg.String() == "" {
			t.Fatal("empty algorithm name")
		}
	}
}

func TestExecutionExposed(t *testing.T) {
	report, err := Config{
		Algorithm: AlgorithmPropose,
		Values:    []Value{2, 2},
		Domain:    4,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Execution == nil || report.Execution.NumRounds() != report.Rounds {
		t.Fatal("execution not exposed correctly")
	}
	if err := report.Execution.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunTrialsAggregatesAndIsWorkerInvariant covers the public sweep
// entry point: trials decide, the agreement histogram accounts for every
// trial, and the aggregate is identical on 1 vs 4 workers (per-trial seeds
// derive from Config.Seed, not from execution order).
func TestRunTrialsAggregatesAndIsWorkerInvariant(t *testing.T) {
	cfg := Config{
		Algorithm: AlgorithmBitByBit,
		Values:    []Value{3, 7, 7, 1},
		Domain:    16,
		Loss:      LossProbabilistic,
		LossP:     0.4,
		ECFRound:  6,
		Stable:    6,
	}
	one, err := cfg.RunTrials(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Trials != 40 || one.Decided != 40 {
		t.Fatalf("trials=%d decided=%d, want 40/40", one.Trials, one.Decided)
	}
	total := 0
	for _, n := range one.Agreements {
		total += n
	}
	if total+one.AgreementViolations != 40 {
		t.Fatalf("agreement histogram covers %d trials, want 40", total)
	}
	if one.MinRounds < 1 || one.MaxRounds < one.MinRounds || one.MeanRounds == 0 {
		t.Fatalf("implausible rounds summary: %+v", one)
	}
	four, err := cfg.RunTrials(40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("RunTrials differs across worker counts:\n1: %+v\n4: %+v", one, four)
	}
}

func TestRunTrialsRejectsBadConfig(t *testing.T) {
	if _, err := (Config{Algorithm: Algorithm(99), Values: []Value{1}}).RunTrials(3, 2); err == nil {
		t.Fatal("bad config accepted")
	}
	// Errors caught only at materialization must still carry the public
	// prefix, without per-trial sweep context or internal prefixes.
	_, err := Config{Algorithm: AlgorithmBitByBit}.RunTrials(3, 2)
	if err == nil || !strings.HasPrefix(err.Error(), "adhocconsensus: ") || strings.Contains(err.Error(), "sim:") {
		t.Fatalf("err = %v, want clean \"adhocconsensus: \" prefix", err)
	}
}

// TestErrorsKeepPublicPrefix pins the error contract: configuration errors
// surfaced by Run carry the package's own prefix, not the internal sim
// package's.
func TestErrorsKeepPublicPrefix(t *testing.T) {
	_, err := Config{Algorithm: AlgorithmBitByBit, Values: []Value{9}, Domain: 4}.Run()
	if err == nil || !strings.HasPrefix(err.Error(), "adhocconsensus: ") {
		t.Fatalf("err = %v, want \"adhocconsensus: \" prefix", err)
	}
	_, err = Config{Algorithm: AlgorithmBitByBit}.Run()
	if err == nil || !strings.HasPrefix(err.Error(), "adhocconsensus: ") {
		t.Fatalf("err = %v, want \"adhocconsensus: \" prefix", err)
	}
}

// apiSink collects the public per-trial stream.
type apiSink struct {
	results []TrialResult
	failAt  int
}

func (s *apiSink) Consume(r TrialResult) error {
	if s.failAt > 0 && len(s.results)+1 == s.failAt {
		return errors.New("sink refused")
	}
	s.results = append(s.results, r)
	return nil
}

// TestResultSinkStreamsTrials: Config.ResultSink sees every trial of
// RunTrials, in order, with re-runnable seeds — a single Run with a trial's
// seed reproduces its rounds.
func TestResultSinkStreamsTrials(t *testing.T) {
	cfg := Config{
		Algorithm: AlgorithmBitByBit,
		Values:    []Value{3, 7, 7, 1},
		Domain:    16,
		Loss:      LossProbabilistic,
		LossP:     0.4,
		Seed:      7,
	}
	var sink apiSink
	cfg.ResultSink = &sink
	st, err := cfg.RunTrials(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.results) != 30 || st.Trials != 30 {
		t.Fatalf("sink saw %d of %d trials", len(sink.results), st.Trials)
	}
	for i, r := range sink.results {
		if r.Trial != i {
			t.Fatalf("trial %d delivered at position %d", r.Trial, i)
		}
		if r.Fingerprint == "" || !r.AgreementOK || !r.ValidityOK {
			t.Fatalf("trial %d incomplete: %+v", i, r)
		}
	}
	// Re-run one mid-sweep trial standalone from its recorded seed.
	probe := sink.results[17]
	single := cfg
	single.ResultSink = nil
	single.Seed = probe.Seed
	report, err := single.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Rounds != probe.Rounds {
		t.Fatalf("standalone re-run of trial 17: %d rounds, sweep recorded %d", report.Rounds, probe.Rounds)
	}
	// A sink error aborts the run.
	cfg.ResultSink = &apiSink{failAt: 3}
	if _, err := cfg.RunTrials(10, 2); err == nil {
		t.Fatal("sink error swallowed")
	}
}

// TestStreamTrialsShardsMergeToRunTrials is the public face of the sharded
// sweep guarantee: the union of k StreamTrials shards, aggregated with
// TrialStatsOf, is byte-identical to RunTrials — at several k, worker
// counts, and with a crash schedule in the configuration.
func TestStreamTrialsShardsMergeToRunTrials(t *testing.T) {
	cfg := Config{
		Algorithm: AlgorithmBitByBit,
		Values:    []Value{3, 7, 7, 1},
		Domain:    16,
		Loss:      LossProbabilistic,
		LossP:     0.35,
		ECFRound:  6,
		Stable:    6,
		Crashes:   []Crash{{Process: 2, Round: 4}},
		Seed:      99,
	}
	const trials = 41
	want, err := cfg.RunTrials(trials, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7} {
		merged := make([]TrialResult, trials)
		for shard := 0; shard < k; shard++ {
			var sink apiSink
			if err := cfg.StreamTrials(trials, 2, shard, k, &sink); err != nil {
				t.Fatal(err)
			}
			last := -1
			for _, r := range sink.results {
				if r.Trial <= last || r.Trial%k != shard {
					t.Fatalf("shard %d/%d delivered trial %d after %d", shard, k, r.Trial, last)
				}
				last = r.Trial
				merged[r.Trial] = r
			}
		}
		if got := TrialStatsOf(merged); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d sharded stats diverged:\n got %+v\nwant %+v", k, got, want)
		}
	}
	if err := cfg.StreamTrials(10, 1, 2, 2, &apiSink{}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if err := cfg.StreamTrials(10, 1, 0, 1, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
	// Config.ResultSink tees into StreamTrials too, before the explicit
	// sink.
	var tee, explicit apiSink
	cfg.ResultSink = &tee
	if err := cfg.StreamTrials(8, 1, 1, 2, &explicit); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tee.results, explicit.results) || len(tee.results) != 4 {
		t.Fatalf("ResultSink tee saw %d results, explicit sink %d", len(tee.results), len(explicit.results))
	}
}

// TestReplayAuditsRecordedTrial covers the public forensic loop: record a
// multi-trial run, replay one trial at full trace, and audit it against the
// recorded digest; tampered digests and foreign configurations are
// rejected.
func TestReplayAuditsRecordedTrial(t *testing.T) {
	cfg := Config{
		Algorithm: AlgorithmBitByBit,
		Values:    []Value{3, 7, 7, 1},
		Domain:    16,
		Loss:      LossProbabilistic,
		LossP:     0.4,
		ECFRound:  6,
		Stable:    6,
		Seed:      5,
	}
	var recorded []TrialResult
	cfg.ResultSink = trialRecorder{&recorded}
	if _, err := cfg.RunTrials(12, 0); err != nil {
		t.Fatal(err)
	}
	cfg.ResultSink = nil

	rep, err := cfg.Replay(recorded[3])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("honest trial failed its audit: mismatch=%q traceErr=%q", rep.Mismatch, rep.TraceError)
	}
	if rep.Trial != 3 || rep.Seed != recorded[3].Seed {
		t.Fatalf("replay identity %d/%d, want %d/%d", rep.Trial, rep.Seed, 3, recorded[3].Seed)
	}
	// The replay runs at FULL trace regardless of the recorded mode: the
	// execution must expose per-round views for forensics.
	if rep.Report == nil || !rep.Report.Execution.HasViews() {
		t.Fatal("replayed execution carries no views")
	}
	if rep.Report.Rounds != recorded[3].Rounds {
		t.Fatalf("replayed %d rounds, recorded %d", rep.Report.Rounds, recorded[3].Rounds)
	}
	rep.Report.Execution.Release()

	// A tampered digest must be caught, with the diverging field named.
	tampered := recorded[3]
	tampered.Decisions--
	rep, err = cfg.Replay(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DigestOK || !strings.Contains(rep.Mismatch, "decisions") {
		t.Fatalf("tampered digest passed: ok=%v mismatch=%q", rep.DigestOK, rep.Mismatch)
	}
	rep.Report.Execution.Release()

	// A foreign configuration is rejected by fingerprint before running.
	foreign := cfg
	foreign.Seed = 6
	if _, err := foreign.Replay(recorded[3]); err == nil {
		t.Fatal("foreign configuration accepted for replay")
	}

	// A record whose seed does not derive from this configuration is
	// rejected even when its fingerprint matches (fingerprints exclude
	// trial seeds): a wholesale-regenerated record cannot pass off its own
	// execution as this sweep's.
	reseeded := recorded[3]
	reseeded.Seed++
	if _, err := cfg.Replay(reseeded); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("foreign-seed record accepted for replay: %v", err)
	}
}

// trialRecorder collects the per-trial stream for replay tests.
type trialRecorder struct{ results *[]TrialResult }

func (r trialRecorder) Consume(tr TrialResult) error {
	*r.results = append(*r.results, tr)
	return nil
}

// TestReplayFlaggedSelectsAnomalies: the selector picks the slowest trials
// (and nothing else in a healthy run), replays each, and reports in trial
// order with reasons attached.
func TestReplayFlaggedSelectsAnomalies(t *testing.T) {
	cfg := Config{
		Algorithm: AlgorithmBitByBit,
		Values:    []Value{3, 7, 7, 1},
		Domain:    16,
		Loss:      LossProbabilistic,
		LossP:     0.4,
		ECFRound:  6,
		Stable:    6,
		Seed:      5,
	}
	var recorded []TrialResult
	cfg.ResultSink = trialRecorder{&recorded}
	if _, err := cfg.RunTrials(12, 0); err != nil {
		t.Fatal(err)
	}
	cfg.ResultSink = nil

	reports, err := cfg.ReplayFlagged(recorded, ReplaySelector{Undecided: true, Violations: true, TopSlowest: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("flagged %d trials, want exactly the 2 slowest (healthy run)", len(reports))
	}
	last := -1
	for _, rep := range reports {
		if !rep.OK() {
			t.Fatalf("trial %d failed its audit: %q %q", rep.Trial, rep.Mismatch, rep.TraceError)
		}
		if len(rep.Reasons) == 0 || rep.Reasons[0] != "slowest" {
			t.Fatalf("trial %d reasons %v", rep.Trial, rep.Reasons)
		}
		if rep.Trial <= last {
			t.Fatalf("reports out of trial order: %d after %d", rep.Trial, last)
		}
		last = rep.Trial
		rep.Report.Execution.Release()
	}
	if reports, err := cfg.ReplayFlagged(recorded, ReplaySelector{}); err != nil || len(reports) != 0 {
		t.Fatalf("empty selector flagged %d trials (%v)", len(reports), err)
	}
}

// TestReplayFlaggedSkipsQuarantined: a quarantined trial carries no digest to
// audit, so it is flagged neither as undecided nor as a violation, nor
// ranked among the slowest; only the recorded trial is replayed.
func TestReplayFlaggedSkipsQuarantined(t *testing.T) {
	cfg := Config{Algorithm: AlgorithmPropose, Values: []Value{3, 7, 7, 1}, Seed: 5}
	var recorded []TrialResult
	cfg.ResultSink = trialRecorder{&recorded}
	if _, err := cfg.RunTrials(2, 1); err != nil {
		t.Fatal(err)
	}
	cfg.ResultSink = nil
	recorded[1] = TrialResult{Trial: 1, Seed: recorded[1].Seed, Fingerprint: recorded[1].Fingerprint, Err: "panic: boom"}

	reports, err := cfg.ReplayFlagged(recorded, ReplaySelector{Undecided: true, Violations: true, TopSlowest: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Trial != 0 {
		t.Fatalf("flagged %d trial(s), want only the recorded trial 0", len(reports))
	}
	if !reports[0].OK() {
		t.Fatalf("trial 0 failed its audit: %q %q", reports[0].Mismatch, reports[0].TraceError)
	}
	reports[0].Report.Execution.Release()
}
