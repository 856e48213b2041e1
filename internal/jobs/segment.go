package jobs

import (
	"context"
	"fmt"
	"time"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// Segment is one experiment's (or the configuration sweep's) contribution
// to a shard file: the planned record sequence of THIS invocation's shard,
// with enough derivation to verify a salvaged prefix record-by-record and
// to stream the remainder after a skip. Segments are laid down in request
// order, so the file's full record sequence is the segments' concatenation
// — which is what makes a byte prefix of the file a prefix of the plan.
//
// Segment is the unit both faces of the pipeline share: "sweeprun run"
// builds segments from its flags, the job supervisor builds the same
// segments from a Spec, and Salvage/Stream treat them identically — which
// is why a daemon-run job's output is byte-identical to the CLI's.
type Segment struct {
	// Name labels errors ("T3", "trials").
	Name string
	// Length is the number of records the segment contributes to this shard.
	Length int
	// Schedule is the segment's seed-schedule version, recorded in the run
	// report (0 for work-item pipelines, which carry explicit seeds).
	Schedule int
	// Verify checks that rec is exactly the segment's pos-th planned record
	// (identity only — outcomes are whatever the recorded run produced).
	Verify func(pos int, rec sink.Record) error
	// Stream executes the segment's trials from skip on, writing one record
	// per trial to j. The caller (jobs.Stream) owns j: it labels it with the
	// segment's Name, flushes it afterwards — even when canceled, so an
	// interrupted file still ends on a record boundary — and reads the
	// segment's accounting from its Tally.
	Stream func(ctx context.Context, skip int, j *sink.JSONL) error
}

// GridSegment plans one scenario-grid experiment's shard.
func GridSegment(e experiments.GridExperiment, shard, shards, workers int, timeout time.Duration) (Segment, error) {
	scenarios, _, err := e.Build()
	if err != nil {
		return Segment{}, err
	}
	shardTrials, err := sim.ShardScenarios(scenarios, shard, shards)
	if err != nil {
		return Segment{}, err
	}
	// Precompute params once per grid point: the sink's lookup runs per
	// trial on the streaming path.
	params := make([]sink.Params, len(scenarios))
	for i, s := range scenarios {
		params[i] = sink.ParamsOf(s)
	}
	schedule := 0
	if len(params) > 0 {
		schedule = params[0].SeedScheduleVersion()
	}
	return Segment{
		Name:     e.Name,
		Length:   len(shardTrials),
		Schedule: schedule,
		Verify: func(pos int, rec sink.Record) error {
			want := shardTrials[pos]
			switch {
			case rec.Exp != e.Name:
				return fmt.Errorf("record belongs to %q, expected %s", rec.Exp, e.Name)
			case rec.Index != want.Index:
				return fmt.Errorf("trial %d, expected global index %d", rec.Index, want.Index)
			case rec.Seed != want.Scenario.Seed:
				return fmt.Errorf("trial %d seed %d does not match this build's grid (%d)", rec.Index, rec.Seed, want.Scenario.Seed)
			}
			if got, exp := rec.Params.SeedScheduleVersion(), params[want.Index].SeedScheduleVersion(); got != exp {
				return &sink.ScheduleMismatchError{Index: rec.Index, Got: got, Want: exp}
			}
			if fp := params[want.Index].Fingerprint(); rec.Fingerprint != fp {
				return fmt.Errorf("trial %d fingerprint %s does not match this build's grid (%s)", rec.Index, rec.Fingerprint, fp)
			}
			return nil
		},
		Stream: func(ctx context.Context, skip int, j *sink.JSONL) error {
			j.Params = func(i int) sink.Params { return params[i] }
			// Retry absorbs transiently failing writes (sink.MarkRetryable)
			// under bounded exponential backoff before aborting the sweep;
			// Ctx lets a drain abort a retry loop mid-backoff.
			return (sim.Runner{Workers: workers, TrialTimeout: timeout}).
				SweepTrialsToCtx(ctx, shardTrials[skip:], &sink.Retry{Base: j, Ctx: ctx})
		},
	}, nil
}

// WorkSegment plans one work-item pipeline's shard: the bespoke analog of
// GridSegment. Items execute through the crash guard (and the deadline
// watchdog when the timeout is set) on sim.Runner's ordered-delivery loop,
// so they are canceled, counted and journaled like scenario trials;
// records stream in item order, quarantined items included.
func WorkSegment(e experiments.WorkExperiment, shard, shards, workers int, timeout time.Duration) (Segment, error) {
	items, runItem, _, err := e.Build()
	if err != nil {
		return Segment{}, err
	}
	shardItems, err := experiments.ShardItems(items, shard, shards)
	if err != nil {
		return Segment{}, err
	}
	run := experiments.GuardRun(runItem)
	if timeout > 0 {
		run = experiments.RunWithDeadline(runItem, timeout)
	}
	return Segment{
		Name:   e.Name,
		Length: len(shardItems),
		Verify: func(pos int, rec sink.Record) error {
			want := shardItems[pos]
			switch {
			case rec.Exp != e.Name:
				return fmt.Errorf("record belongs to %q, expected %s", rec.Exp, e.Name)
			case rec.Index != want.Index:
				return fmt.Errorf("item %d, expected global index %d", rec.Index, want.Index)
			case rec.Item != want.Kind || rec.ItemParams != want.Params ||
				rec.Fingerprint != want.Fingerprint() || rec.Seed != want.Seed:
				return fmt.Errorf("item %d does not match this build's pipeline (recorded %s(%s) fp=%s seed=%d)",
					rec.Index, rec.Item, rec.ItemParams, rec.Fingerprint, rec.Seed)
			}
			return nil
		},
		Stream: func(ctx context.Context, skip int, j *sink.JSONL) error {
			items := shardItems[skip:]
			outs := make([]string, len(items))
			// The runner's ordered loop delivers each item's Result — its
			// identity and error — while the outcome waits in outs until its
			// record is written.
			next := 0
			write := resultSinkFunc(func(r sim.Result) error {
				rec := sink.RecordOfItem(e.Name, items[next], outs[next])
				if r.Err != nil {
					rec.Out, rec.Err = "", r.Err.Error()
				}
				outs[next] = "" // release once delivered
				next++
				return j.WriteRecord(rec)
			})
			return (sim.Runner{Workers: workers}).SweepFuncToCtx(ctx, len(items), func(i int) sim.Result {
				item := items[i]
				out, err := run(item)
				outs[i] = out
				return sim.Result{Index: item.Index, Name: item.Kind, Seed: item.Seed, Err: err}
			}, write)
		},
	}, nil
}

// resultSinkFunc adapts a function to sim.ResultSink.
type resultSinkFunc func(sim.Result) error

func (f resultSinkFunc) Consume(r sim.Result) error { return f(r) }

// TrialsSegment plans one configuration-sweep shard through the public
// streaming API.
func TrialsSegment(cf *cli.ConfigFlags, trials, shard, shards, workers int, timeout time.Duration) (Segment, error) {
	cfg, err := cf.Config()
	if err != nil {
		return Segment{}, err
	}
	cfg.TrialTimeout = timeout
	params := cli.RecordParams(cfg)
	length := 0
	if trials > shard {
		length = (trials - shard + shards - 1) / shards
	}
	// The sweep fingerprint is derived inside the library per trial; resume
	// captures the salvaged records' fingerprint and the streaming sink
	// checks the first fresh result against it before anything is appended,
	// so a resume under different configuration flags aborts with the file
	// untouched (the seed schedule and recorded params are checked up front).
	var salvagedFP string
	return Segment{
		Name:     "trials",
		Length:   length,
		Schedule: params.SeedScheduleVersion(),
		Verify: func(pos int, rec sink.Record) error {
			want := shard + pos*shards
			switch {
			case rec.Exp != "trials":
				return fmt.Errorf("record belongs to %q, expected trials", rec.Exp)
			case rec.Index != want:
				return fmt.Errorf("trial %d, expected global index %d", rec.Index, want)
			case rec.Seed != sim.TrialSeed(cfg.Seed, 0, want):
				return fmt.Errorf("trial %d seed %d does not match this configuration's seed schedule (%d)",
					want, rec.Seed, sim.TrialSeed(cfg.Seed, 0, want))
			case rec.Params.SeedScheduleVersion() != params.SeedScheduleVersion():
				return &sink.ScheduleMismatchError{
					Index: want,
					Got:   rec.Params.SeedScheduleVersion(),
					Want:  params.SeedScheduleVersion(),
				}
			case rec.Params != params:
				return fmt.Errorf("trial %d was recorded under different configuration parameters", want)
			}
			switch {
			case salvagedFP == "":
				salvagedFP = rec.Fingerprint
			case rec.Fingerprint != salvagedFP:
				return fmt.Errorf("trial %d fingerprint %s differs from the file's %s — mixed configurations", want, rec.Fingerprint, salvagedFP)
			}
			return nil
		},
		Stream: func(ctx context.Context, skip int, j *sink.JSONL) error {
			s := &jsonlTrials{j: j, params: params, wantFP: salvagedFP}
			return cfg.StreamTrialsFrom(ctx, trials, workers, shard, shards, skip, s)
		},
	}, nil
}

// jsonlTrials adapts the public per-trial stream to JSONL records, reusing
// a values scratch so million-trial shards stay allocation-free per record
// like the sim-sweep path.
type jsonlTrials struct {
	j      *sink.JSONL
	params sink.Params
	// wantFP, when set, is the fingerprint of the salvaged prefix being
	// resumed: every fresh result must match it, or the configurations
	// differ and appending would corrupt the shard. The mismatch aborts
	// through the sink-error path before any byte is written.
	wantFP string
	vals   []uint64
}

func (s *jsonlTrials) Consume(r adhocconsensus.TrialResult) error {
	if s.wantFP != "" && r.Fingerprint != s.wantFP {
		return cli.WithExit(cli.ExitReject, fmt.Errorf(
			"resumed sweep fingerprint %s does not match the file's %s — configuration flags differ from the recorded run",
			r.Fingerprint, s.wantFP))
	}
	rec := sink.Record{
		Fingerprint:       r.Fingerprint,
		Index:             r.Trial,
		Seed:              r.Seed,
		Rounds:            r.Rounds,
		AllDecided:        r.Decided,
		Decisions:         r.Decisions,
		LastDecisionRound: r.LastDecisionRound,
		AgreementOK:       r.AgreementOK,
		ValidityOK:        r.ValidityOK,
		TerminationOK:     r.TerminationOK,
		Err:               r.Err,
		Params:            s.params,
	}
	s.vals = s.vals[:0]
	for _, v := range r.DecidedValues {
		s.vals = append(s.vals, uint64(v))
	}
	rec.DecidedValues = s.vals
	return s.j.WriteRecord(rec)
}
