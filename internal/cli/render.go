package cli

import (
	"fmt"
	"io"

	"adhocconsensus"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sink"
)

// RenderGroup renders one group of recorded results — the records of one
// experiment, or "trials" for a configuration sweep — without re-running
// anything: an experiment table through replay.RenderExperiment, or the
// trial statistics and seed-provenance report consensus-sim -trials prints.
// With quiet, an experiment collapses to its PASS/FAIL line and a sweep to
// one summary line. pass reports the experiment's internal checks (a sweep
// has none and always passes). A non-nil error means the records do not
// form a renderable set, and nothing was written.
func RenderGroup(out io.Writer, name string, recs []sink.Record, quiet bool) (pass bool, err error) {
	if name != "trials" {
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
	alg, err := ParseAlgorithm(recs[0].Params.Algorithm)
	if err != nil {
		return false, fmt.Errorf("records carry no usable algorithm param: %w", err)
	}
	PrintTrialStats(out, alg, recs[0].Params.N, st)
	PrintSeedProvenance(out, trs)
	return true, nil
}

// TrialResultsOf reconstructs the public TrialResults of a merged
// configuration-sweep group: a complete cover of one seed schedule and one
// fingerprint.
func TrialResultsOf(recs []sink.Record) ([]adhocconsensus.TrialResult, error) {
	results, err := sink.Merge(recs)
	if err != nil {
		return nil, err
	}
	// One sweep runs under one seed schedule; shards recorded under v1 and
	// v2 are different experiments and must not fold together.
	if _, err := sink.UniformSeedSchedule(recs); err != nil {
		return nil, err
	}
	// All trials of one configuration share its fingerprint; reject mixed
	// files.
	fp := recs[0].Fingerprint
	for _, rec := range recs {
		if rec.Fingerprint != fp {
			return nil, fmt.Errorf("trial %d fingerprint %s differs from %s — shards from different configurations",
				rec.Index, rec.Fingerprint, fp)
		}
	}
	trs := make([]adhocconsensus.TrialResult, len(results))
	for i, r := range results {
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
