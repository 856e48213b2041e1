package cli

import (
	"fmt"
	"io"

	"adhocconsensus"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// RenderGroup renders one group of recorded results — the records of one
// experiment, or a configuration sweep's (replay.SweepExp) — without
// re-running anything: an experiment table through
// replay.RenderExperiment, or the trial statistics and seed-provenance
// report consensus-sim -trials prints. With quiet, an experiment collapses
// to its PASS/FAIL line and a sweep to one summary line. pass reports the
// experiment's internal checks (a sweep has none and always passes). A
// non-nil error means the records do not form a renderable set, and
// nothing was written.
func RenderGroup(out io.Writer, name string, recs []sink.Record, quiet bool) (pass bool, err error) {
	if name != replay.SweepExp {
		table, err := replay.RenderExperiment(name, recs)
		if err != nil {
			return false, err
		}
		switch {
		case !quiet:
			fmt.Fprintln(out, table)
		case table.Pass:
			fmt.Fprintf(out, "%s: PASS\n", name)
		default:
			fmt.Fprintf(out, "%s: FAIL\n", name)
		}
		return table.Pass, nil
	}
	trs, err := TrialResultsOf(recs)
	if err != nil {
		return false, err
	}
	st := adhocconsensus.TrialStatsOf(trs)
	if quiet {
		fmt.Fprintf(out, "trials: %d merged, %d decided, %d violation(s)\n",
			st.Trials, st.Decided, st.AgreementViolations)
		return true, nil
	}
	alg, err := sim.ParseAlgorithm(recs[0].Params.Algorithm)
	if err != nil {
		return false, fmt.Errorf("records carry no usable algorithm param: %w", err)
	}
	PrintTrialStats(out, alg, recs[0].Params.N, st)
	PrintSeedProvenance(out, trs)
	return true, nil
}

// TrialResultsOf reconstructs the public TrialResults of a merged
// configuration-sweep group: every record passes the sweep's plan
// (replay.PlanOf) and the records cover trials 0..n-1. A quarantined trial
// keeps its error, with a zero digest, as the live stream delivers it.
func TrialResultsOf(recs []sink.Record) ([]adhocconsensus.TrialResult, error) {
	plan, err := replay.PlanOf(replay.SweepExp, recs)
	if err != nil {
		return nil, err
	}
	if err := plan.CheckGroup(recs); err != nil {
		return nil, err
	}
	results, err := sink.Merge(recs)
	if err != nil {
		return nil, err
	}
	fp := recs[0].Fingerprint
	trs := make([]adhocconsensus.TrialResult, len(results))
	for i, r := range results {
		if r.Err != nil {
			trs[i] = adhocconsensus.TrialResult{Trial: r.Index, Seed: r.Seed, Fingerprint: fp, Err: r.Err.Error()}
			continue
		}
		trs[i] = adhocconsensus.TrialResult{
			Trial:             r.Index,
			Seed:              r.Seed,
			Fingerprint:       fp,
			Rounds:            r.Rounds,
			Decided:           r.AllDecided,
			Decisions:         r.Decisions,
			DecidedValues:     r.DecidedValues,
			LastDecisionRound: r.LastDecisionRound,
			AgreementOK:       r.AgreementOK,
			ValidityOK:        r.ValidityOK,
			TerminationOK:     r.TerminationOK,
		}
	}
	return trs, nil
}
