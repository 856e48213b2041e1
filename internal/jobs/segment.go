package jobs

import (
	"context"
	"fmt"
	"time"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/replay"
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
	// Name labels errors: an experiment's ID or replay.SweepExp.
	Name string
	// Length is the number of records the segment contributes to this shard.
	Length int
	// Schedule is the segment's seed-schedule version, recorded in the run
	// report (0 for work-item pipelines, which carry explicit seeds).
	Schedule int
	// Stream executes the segment's trials from skip on, writing one record
	// per trial to j. The caller (jobs.Stream) owns j: it labels it with the
	// segment's Name, flushes it afterwards — even when canceled, so an
	// interrupted file still ends on a record boundary — and reads the
	// segment's accounting from its Tally.
	Stream func(ctx context.Context, skip int, j *sink.JSONL) error

	// plan decides the segment's records; index maps a shard position to
	// the global index of the record planned there.
	plan  *replay.Plan
	index func(pos int) int
}

// Verify checks that rec is exactly the segment's pos-th planned record:
// the plan's check at a shard position (identity only — outcomes are
// whatever the recorded run produced).
func (s Segment) Verify(pos int, rec sink.Record) error {
	if err := s.plan.Check(rec); err != nil {
		return err
	}
	if want := s.index(pos); rec.Index != want {
		return fmt.Errorf("global index %d, expected %d", rec.Index, want)
	}
	return nil
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
		Stream: func(ctx context.Context, skip int, j *sink.JSONL) error {
			j.Params = func(i int) sink.Params { return params[i] }
			return (sim.Runner{Workers: workers, TrialTimeout: timeout}).
				SweepTrialsToCtx(ctx, shardTrials[skip:], j)
		},
		plan:  replay.GridPlan(e.Name, scenarios),
		index: func(pos int) int { return shardTrials[pos].Index },
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
		plan:  replay.WorkPlan(e.Name, items),
		index: func(pos int) int { return shardItems[pos].Index },
	}, nil
}

// resultSinkFunc adapts a function to sim.ResultSink.
type resultSinkFunc func(sim.Result) error

func (f resultSinkFunc) Consume(r sim.Result) error { return f(r) }

// TrialsSegment plans one configuration-sweep shard through the public
// streaming API. A configuration whose trials cannot run is refused here,
// by the check the stream would make before its first trial, so no output
// is created for it.
func TrialsSegment(cf *cli.ConfigFlags, trials, shard, shards, workers int, timeout time.Duration) (Segment, error) {
	cfg, err := cf.Config()
	if err != nil {
		return Segment{}, err
	}
	if err := cfg.CheckTrials(); err != nil {
		return Segment{}, err
	}
	cfg.TrialTimeout = timeout
	params := cli.RecordParams(cfg)
	plan := replay.SweepPlan(params)
	return Segment{
		Name:     replay.SweepExp,
		Length:   sim.ShardLen(trials, shard, shards),
		Schedule: params.SeedScheduleVersion(),
		Stream: func(ctx context.Context, skip int, j *sink.JSONL) error {
			s := &jsonlTrials{j: j, params: params, plan: plan}
			return cfg.StreamTrialsFrom(ctx, trials, workers, shard, shards, skip, s)
		},
		plan:  plan,
		index: func(pos int) int { return shard + pos*shards },
	}, nil
}

// jsonlTrials adapts the public per-trial stream to JSONL records, reusing
// a values scratch so million-trial shards stay allocation-free per record
// like the sim-sweep path.
type jsonlTrials struct {
	j      *sink.JSONL
	params sink.Params
	plan   *replay.Plan
	// fp is a fingerprint the plan accepted. The library derives each
	// trial's fingerprint itself, so a result carrying another goes through
	// the plan's check, and a record the plan rejects aborts the stream
	// through the sink-error path before it is written.
	fp   string
	vals []uint64
}

func (s *jsonlTrials) Consume(r adhocconsensus.TrialResult) error {
	rec := sink.Record{
		Exp:               s.j.Exp,
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
	if r.Fingerprint != s.fp {
		if err := s.plan.Check(rec); err != nil {
			return cli.WithExit(cli.ExitReject, err)
		}
		s.fp = r.Fingerprint
	}
	s.vals = s.vals[:0]
	for _, v := range r.DecidedValues {
		s.vals = append(s.vals, uint64(v))
	}
	rec.DecidedValues = s.vals
	return s.j.WriteRecord(rec)
}
