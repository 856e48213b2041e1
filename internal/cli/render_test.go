package cli

import (
	"fmt"
	"strings"
	"testing"

	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// sweepParams configures the sweep sweepRecords holds.
var sweepParams = sink.Params{Algorithm: "propose", N: 4, Trace: "decisions", SweepSeed: 7}

// sweepRecords is a three-trial configuration sweep as a shard file holds
// it, with the seeds and fingerprint the writer records; trial 1 did not
// decide.
func sweepRecords() []sink.Record {
	p := sweepParams
	recs := make([]sink.Record, 3)
	for i := range recs {
		recs[i] = sink.Record{
			Schema: sink.Schema, Exp: "trials", Fingerprint: p.Fingerprint(), Index: i, Seed: sim.TrialSeed(7, 0, i),
			Rounds: 3 + i, AllDecided: true, Decisions: 4, DecidedValues: []uint64{7}, LastDecisionRound: 3 + i,
			AgreementOK: true, ValidityOK: true, TerminationOK: true, Params: p,
		}
	}
	recs[1].AllDecided, recs[1].Decisions, recs[1].DecidedValues = false, 0, nil
	return recs
}

// TestRenderGroupRejectsMixedSweeps: a sweep group mixing fingerprints or
// seed schedules is rejected with the message "sweeprun merge" prints after
// "trials: ", and nothing is rendered.
func TestRenderGroupRejectsMixedSweeps(t *testing.T) {
	mixedFP := sweepRecords()
	mixedFP[2].Fingerprint = "beef"
	mixedSched := sweepRecords()
	mixedSched[1].Params.SeedSchedule = 2
	for _, tc := range []struct {
		name string
		recs []sink.Record
		want string
	}{
		{"fingerprint", mixedFP, "trial 2 fingerprint beef does not match this build's sweep (" + sweepParams.Fingerprint() + ")"},
		{"schedule", mixedSched, "sink: trial 1 was recorded under seed schedule v2, expected v1 — v1 and v2 recordings cannot mix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, quiet := range []bool{false, true} {
				var out strings.Builder
				_, err := RenderGroup(&out, "trials", tc.recs, quiet)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("quiet=%v: RenderGroup = %v, want %q", quiet, err, tc.want)
				}
				if out.Len() != 0 {
					t.Fatalf("quiet=%v: a rejected group rendered %q", quiet, out.String())
				}
			}
		})
	}
}

// TestRenderGroupTrials: a sweep renders as consensus-sim -trials prints it —
// the statistics, then the seed-provenance block — or as one summary line
// when quiet.
func TestRenderGroupTrials(t *testing.T) {
	recs := sweepRecords()
	var quiet strings.Builder
	if pass, err := RenderGroup(&quiet, "trials", recs, true); err != nil || !pass {
		t.Fatalf("quiet RenderGroup = %v, %v", pass, err)
	}
	if got, want := quiet.String(), "trials: 3 merged, 2 decided, 0 violation(s)\n"; got != want {
		t.Fatalf("quiet trials line %q, want %q", got, want)
	}

	var full strings.Builder
	if pass, err := RenderGroup(&full, "trials", recs, false); err != nil || !pass {
		t.Fatalf("RenderGroup = %v, %v", pass, err)
	}
	trs, err := TrialResultsOf(recs)
	if err != nil {
		t.Fatal(err)
	}
	var provenance strings.Builder
	PrintSeedProvenance(&provenance, trs)
	if !strings.HasPrefix(full.String(), "algorithm : propose-veto (Alg 1)\nprocesses : 4\ntrials    : 3\ndecided   : 2/3\n") ||
		!strings.HasSuffix(full.String(), provenance.String()) {
		t.Fatalf("trials output does not open with the statistics and end with the provenance block:\n%s", full.String())
	}
	for _, want := range []string{"seeds     : ", fmt.Sprintf("  undecided : trial 1 (4 rounds) seed %d\n", sim.TrialSeed(7, 0, 1))} {
		if !strings.Contains(provenance.String(), want) {
			t.Fatalf("provenance block lacks %q:\n%s", want, provenance.String())
		}
	}
}

// TestRenderGroupFailingTable: an experiment whose checks fail still renders
// — its full table says PASS=false, its quiet line says FAIL — and reports
// not-passed, which is what makes "sweeprun merge" exit non-zero.
func TestRenderGroupFailingTable(t *testing.T) {
	e, ok := experiments.GridExperimentByName("T8")
	if !ok {
		t.Fatal("no grid experiment T8")
	}
	scenarios, _, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sim.Runner{Workers: 1}.Sweep(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]sink.Record, len(results))
	for i, r := range results {
		recs[i] = sink.RecordOf("T8", sink.ParamsOf(scenarios[i]), r)
	}
	render := func(quiet bool) (string, bool) {
		t.Helper()
		var out strings.Builder
		pass, err := RenderGroup(&out, "T8", recs, quiet)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), pass
	}
	if out, pass := render(true); out != "T8: PASS\n" || !pass {
		t.Fatalf("recorded T8 renders %q (pass=%v), want a PASS line", out, pass)
	}
	// The majority-complete detector must keep every process silent under
	// the permanent partition; a recorded decision breaks the table's check.
	recs[1].Decisions = 1
	if out, pass := render(true); out != "T8: FAIL\n" || pass {
		t.Fatalf("broken T8 renders %q (pass=%v), want a FAIL line", out, pass)
	}
	if out, pass := render(false); !strings.Contains(out, "PASS=false") || pass {
		t.Fatalf("broken T8 full table (pass=%v):\n%s", pass, out)
	}
}
