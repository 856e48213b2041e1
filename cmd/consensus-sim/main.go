// Command consensus-sim runs one consensus execution and prints the
// decision, round count, and (optionally) the full round-by-round trace.
// With -trials N it instead sweeps N independently seeded trials of the
// same configuration on a parallel worker pool (-parallel, default
// GOMAXPROCS) and prints aggregate statistics plus per-trial seed
// provenance: the derived seed of the slowest trial and of every
// undecided/violating trial, so a single anomalous trial can be re-run
// standalone by passing that seed to a single run. Per-trial seeds derive
// deterministically from -seed, so the sweep output is identical for any
// worker count.
//
// Examples:
//
//	consensus-sim -alg bitbybit -values 3,7,7,1 -domain 16
//	consensus-sim -alg treewalk -values 12,60,33 -domain 64 -loss drop -trace
//	consensus-sim -alg propose -values 5,9 -loss prob -p 0.4 -cst 12 -seed 7
//	consensus-sim -alg leaderrelay -values 100,200,300 -domain 1048576 -idspace 16
//	consensus-sim -alg bitbybit -values 3,7,7,1 -loss prob -p 0.4 -trials 1000 -parallel 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "consensus-sim:", err)
		os.Exit(1)
	}
}

// trialCollector captures the per-trial stream for the provenance report.
type trialCollector []adhocconsensus.TrialResult

func (c *trialCollector) Consume(r adhocconsensus.TrialResult) error {
	*c = append(*c, r)
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("consensus-sim", flag.ContinueOnError)
	cf := cli.RegisterConfig(fs)
	var (
		trace    = fs.Bool("trace", false, "print the full execution trace")
		jsonOut  = fs.Bool("json", false, "dump the execution as JSON to stdout")
		trials   = fs.Int("trials", 1, "run this many independently seeded trials and print aggregate stats")
		parallel = fs.Int("parallel", 0, "worker-pool size for -trials (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := cf.Config()
	if err != nil {
		return err
	}

	if *trials > 1 {
		if *trace || *jsonOut {
			return fmt.Errorf("-trace and -json require a single run (drop -trials)")
		}
		// One collection serves both the statistics and the provenance
		// report (RunTrials would keep a second internal copy).
		var collected trialCollector
		if err := cfg.StreamTrials(*trials, *parallel, 0, 1, &collected); err != nil {
			return err
		}
		cli.PrintTrialStats(out, cfg.Algorithm, len(cfg.Values), adhocconsensus.TrialStatsOf(collected))
		cli.PrintSeedProvenance(out, collected)
		return nil
	}

	report, err := cfg.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "algorithm : %v\n", cfg.Algorithm)
	fmt.Fprintf(out, "processes : %d\n", len(cfg.Values))
	fmt.Fprintf(out, "rounds    : %d\n", report.Rounds)
	fmt.Fprintf(out, "decided   : %v\n", report.Decided)
	if report.Decided {
		fmt.Fprintf(out, "agreed on : %d\n", uint64(report.Agreed))
	}
	for id := 1; id <= len(cfg.Values); id++ {
		if d, ok := report.Decisions[adhocconsensus.ProcessID(id)]; ok {
			fmt.Fprintf(out, "  p%d decided %d at round %d\n", id, uint64(d.Value), d.Round)
		} else {
			fmt.Fprintf(out, "  p%d undecided\n", id)
		}
	}
	if *trace {
		fmt.Fprintln(out, "\ntrace:")
		fmt.Fprint(out, report.Execution.String())
	}
	if *jsonOut {
		if err := report.Execution.WriteJSON(out); err != nil {
			return fmt.Errorf("json export: %w", err)
		}
	}
	return nil
}
