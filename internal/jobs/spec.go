package jobs

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/telemetry"
)

// Spec is a serializable description of one shard run — the job analog of a
// "sweeprun run" invocation. Exactly one of Exps or Trials selects the
// plan: named experiments in request order, or an N-trial sweep of the
// configuration the Config flag-args describe (the same flags consensus-sim
// and sweeprun take, e.g. ["-alg", "bitbybit", "-p", "0.4"]). A Spec builds
// the exact segment plan the CLI builds, so a supervised job's output is
// byte-identical to the CLI running the same arguments.
type Spec struct {
	// Exps names experiments by ID (experiments.Names), in order.
	Exps []string `json:"exps,omitempty"`
	// Trials, when positive, sweeps this many trials of the configuration
	// described by Config instead of named experiments.
	Trials int `json:"trials,omitempty"`
	// Config holds configuration flag-args for a Trials sweep.
	Config []string `json:"config,omitempty"`
	// Shard/Shards select the i-of-k partition (defaulting to 0/1).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Workers sizes the trial worker pool (0 = GOMAXPROCS). An execution
	// detail: it does not join the fingerprint, because the record stream
	// is byte-identical at any worker count.
	Workers int `json:"workers,omitempty"`
	// TrialTimeout quarantines trials that overrun it (0 = unbounded).
	TrialTimeout time.Duration `json:"trial_timeout,omitempty"`
	// Out is the shard file the job appends to; the run report lands next
	// to it as Out+".report.json".
	Out string `json:"out"`
}

// Normalize fills the partition defaults in place.
func (s *Spec) Normalize() {
	if s.Shards == 0 {
		s.Shards = 1
	}
}

// Validate rejects specs that could never build a plan, before admission.
func (s Spec) Validate() error {
	if (len(s.Exps) == 0) == (s.Trials == 0) {
		return fmt.Errorf("jobs: spec needs exactly one of exps or trials")
	}
	if s.Trials < 0 {
		return fmt.Errorf("jobs: trials %d must be positive", s.Trials)
	}
	if s.Shards < 1 || s.Shard < 0 || s.Shard >= s.Shards {
		return fmt.Errorf("jobs: shard %d/%d out of range", s.Shard, s.Shards)
	}
	if s.Out == "" {
		return fmt.Errorf("jobs: spec needs an output path")
	}
	return nil
}

// Fingerprint identifies the job for admission dedup: two specs that would
// produce the same output file from the same plan collide. Workers stays
// out (execution detail, stream-invariant); everything that shapes the
// record sequence or its destination joins the hash.
func (s Spec) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%d/%d|%s|%s",
		strings.Join(s.Exps, ","), s.Trials, strings.Join(s.Config, " "),
		s.Shard, s.Shards, s.TrialTimeout, s.Out)
	return strconv.FormatUint(h.Sum64(), 16)
}

// BuildSegments compiles the spec into its segment plan. Experiments
// resolve through ExperimentSegments, the resolver "sweeprun run -exp"
// uses; a Trials spec parses its Config flag-args through the same
// registry consensus-sim uses.
func BuildSegments(spec Spec) ([]Segment, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Trials > 0 {
		fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cf := cli.RegisterConfig(fs)
		if err := fs.Parse(spec.Config); err != nil {
			return nil, fmt.Errorf("jobs: config args: %w", err)
		}
		if fs.NArg() > 0 {
			return nil, fmt.Errorf("jobs: config args carry %d non-flag argument(s)", fs.NArg())
		}
		seg, err := TrialsSegment(cf, spec.Trials, spec.Shard, spec.Shards, spec.Workers, spec.TrialTimeout)
		if err != nil {
			return nil, err
		}
		return []Segment{seg}, nil
	}
	return ExperimentSegments(spec.Exps, spec.Shard, spec.Shards, spec.Workers, spec.TrialTimeout)
}

// ExperimentSegments plans the named experiments' shards, one segment per
// experiment in request order. Names are trimmed; "all" expands in place to
// every grid experiment, then every work pipeline, each in table order.
func ExperimentSegments(names []string, shard, shards, workers int, timeout time.Duration) ([]Segment, error) {
	var exps []experiments.Experiment
	for _, name := range names {
		if name = strings.TrimSpace(name); name != "all" {
			e, err := experiments.ByName(name)
			if err != nil {
				return nil, err
			}
			exps = append(exps, e)
			continue
		}
		for _, grids := range []bool{true, false} {
			for _, e := range experiments.List() {
				if _, isGrid := e.Grid(); isGrid == grids {
					exps = append(exps, e)
				}
			}
		}
	}
	segs := make([]Segment, len(exps))
	for i, e := range exps {
		var err error
		if g, ok := e.Grid(); ok {
			segs[i], err = GridSegment(g, shard, shards, workers, timeout)
		} else {
			w, _ := e.Work()
			segs[i], err = WorkSegment(w, shard, shards, workers, timeout)
		}
		if err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// Execute runs a spec end to end: build the plan, salvage the output file's
// durable prefix (a missing file is an empty prefix, so every attempt —
// first, retried, or resumed after a kill — goes through the same path),
// stream the remaining trials, and write the run report next to the shard
// file. The returned report is always non-nil when the plan built; the
// error is the run's classification (nil, *sim.TrialError for quarantined
// trials, *sim.CanceledError for a drain, a pinned sink/reject error
// otherwise), exactly what cli.ExitCodeOf maps to the documented codes.
func Execute(ctx context.Context, spec Spec, info io.Writer) (*telemetry.Report, error) {
	spec.Normalize()
	segs, err := BuildSegments(spec)
	if err != nil {
		return nil, cli.WithExit(cli.ExitUsage, err)
	}
	// The report's quarantine cause split, histograms and metrics snapshot
	// read the process-global counters; its trial counts come from the
	// segments' sinks.
	telemetry.Enable()
	skips := make([]int, len(segs))
	f, err := Salvage(spec.Out, segs, skips, info)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out := Stream(ctx, segs, skips, f, nil)
	cerr := f.Close()
	if out.AbortErr == nil && cerr != nil {
		out.AbortErr = cli.WithExit(cli.ExitSink, cerr)
	}
	rep := BuildReport("sweepd job", StatusOf(out.AbortErr, out.TrialErr), time.Since(start), out.Segments, out.Causes)
	if werr := rep.WriteFile(spec.Out + ".report.json"); werr != nil {
		if out.Err() == nil {
			return rep, cli.WithExit(cli.ExitSink, fmt.Errorf("run report: %w", werr))
		}
		fmt.Fprintf(info, "run report not written: %v\n", werr)
	}
	return rep, out.Err()
}
