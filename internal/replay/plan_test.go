package replay_test

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// written runs spec through the production writer and reads its shard back.
func written(t *testing.T, spec jobs.Spec) []sink.Record {
	t.Helper()
	spec.Out = filepath.Join(t.TempDir(), "shard.jsonl")
	spec.Workers = 1
	if _, err := jobs.Execute(context.Background(), spec, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(spec.Out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := sink.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("writer produced %d records, want at least 2", len(recs))
	}
	return recs
}

// TestPlansDecideTheirWritersRecords: each plan kind accepts every record its
// writer produces — also when derived from the group name alone — and
// rejects a foreign fingerprint, a reseeded record, an index outside the
// plan, a record of another experiment, and a seed-schedule skew (typed).
func TestPlansDecideTheirWritersRecords(t *testing.T) {
	t8, _ := experiments.ByName("T8")
	grid, _ := t8.Grid()
	scenarios, _, err := grid.Build()
	if err != nil {
		t.Fatal(err)
	}
	t9, _ := experiments.ByName("T9")
	work, _ := t9.Work()
	items, _, _, err := work.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		spec    jobs.Spec
		plan    func(recs []sink.Record) *replay.Plan
		outside int
	}{
		{"grid", jobs.Spec{Exps: []string{"T8"}},
			func([]sink.Record) *replay.Plan { return replay.GridPlan("T8", scenarios) }, len(scenarios)},
		{"work", jobs.Spec{Exps: []string{"T9"}},
			func([]sink.Record) *replay.Plan { return replay.WorkPlan("T9", items) }, len(items)},
		// A sweep's trial count is not recorded: only a negative index is
		// outside its plan.
		{"sweep", jobs.Spec{Trials: 6, Config: []string{"-alg", "bitbybit", "-values", "3,7,7,1", "-loss", "prob", "-p", "0.4", "-seed", "7"}},
			func(recs []sink.Record) *replay.Plan { return replay.SweepPlan(recs[0].Params) }, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := written(t, tc.spec)
			plan := tc.plan(recs)
			for _, rec := range recs {
				if err := plan.Check(rec); err != nil {
					t.Fatalf("writer's record rejected: %v", err)
				}
			}
			byName, err := replay.PlanOf(recs[0].Exp, recs)
			if err != nil {
				t.Fatal(err)
			}
			if err := byName.CheckGroup(recs); err != nil {
				t.Fatalf("PlanOf(%q) rejects the writer's records: %v", recs[0].Exp, err)
			}

			at := func(mutate func(*sink.Record)) sink.Record {
				rec := recs[1]
				mutate(&rec)
				return rec
			}
			for _, bad := range []struct {
				what string
				rec  sink.Record
				want string
			}{
				{"foreign fingerprint", at(func(r *sink.Record) { r.Fingerprint = "deadbeef" }), "fingerprint deadbeef does not match"},
				{"reseeded record", at(func(r *sink.Record) { r.Seed++ }), "seed schedule"},
				{"index outside the plan", at(func(r *sink.Record) { r.Index = tc.outside }), "outside"},
				{"record of another exp", at(func(r *sink.Record) { r.Exp = "T3" }), `record belongs to "T3"`},
			} {
				if err := plan.Check(bad.rec); err == nil || !strings.Contains(err.Error(), bad.want) {
					t.Errorf("%s: Check = %v, want an error containing %q", bad.what, err, bad.want)
				}
			}
			skewed := at(func(r *sink.Record) { r.Params.SeedSchedule = 2 })
			var mismatch *sink.ScheduleMismatchError
			if err := plan.Check(skewed); !errors.As(err, &mismatch) ||
				mismatch.Index != skewed.Index || mismatch.Got != 2 || mismatch.Want != 1 {
				t.Errorf("schedule skew: Check = %v, want a *sink.ScheduleMismatchError for trial %d (got v2, want v1)", err, skewed.Index)
			}
		})
	}
}

// sweepRecords is an n-trial configuration sweep recorded with params, as
// the writer records it.
func sweepRecords(p sink.Params, n int) []sink.Record {
	recs := make([]sink.Record, n)
	for i := range recs {
		recs[i] = sink.Record{Schema: sink.Schema, Exp: "trials", Fingerprint: p.Fingerprint(), Index: i,
			Seed: sim.TrialSeed(p.SweepSeed, 0, i), Params: p}
	}
	return recs
}

// TestSweepPlanSeedSchedules: a sweep recorded under one seed schedule
// passes its plan under either version; a set mixing versions fails with
// the typed, positioned error, anchored at the majority's version; and a
// plan of one version rejects records of the other, as resume does.
func TestSweepPlanSeedSchedules(t *testing.T) {
	v1 := sink.Params{Algorithm: "bitbybit", N: 4, Domain: 16, Loss: "prob", LossP: 0.4,
		Race: 9, CM: "auto", Stable: 9, ECFRound: 9, MaxRounds: 100000, Trace: "decisions", SweepSeed: 11}
	v2 := v1
	v2.SeedSchedule = 2
	for _, p := range []sink.Params{v1, v2} {
		recs := sweepRecords(p, 8)
		plan, err := replay.PlanOf("trials", recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.CheckGroup(recs); err != nil {
			t.Fatalf("uniform v%d sweep rejected: %v", p.SeedScheduleVersion(), err)
		}
	}

	mixed := sweepRecords(v1, 8)
	mixed[7] = sweepRecords(v2, 8)[7]
	plan, err := replay.PlanOf("trials", mixed)
	if err != nil {
		t.Fatal(err)
	}
	err = plan.CheckGroup(mixed)
	var mismatch *sink.ScheduleMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("mixed set error %v, want *sink.ScheduleMismatchError", err)
	}
	if mismatch.Index != 7 || mismatch.Got != 2 || mismatch.Want != 1 {
		t.Fatalf("mismatch = %+v, want index 7, got v2, want v1", mismatch)
	}
	for _, frag := range []string{"trial 7", "seed schedule v2", "expected v1"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("message %q missing %q", err.Error(), frag)
		}
	}

	if err := replay.SweepPlan(v2).Check(sweepRecords(v1, 1)[0]); !errors.As(err, &mismatch) || mismatch.Got != 1 || mismatch.Want != 2 {
		t.Fatalf("v1 record against a v2 plan: %v", err)
	}
}

// TestSweepPlanMajority: a sweep's plan comes from the params most records
// carry, and a tie goes to the larger fingerprint whatever the record order.
func TestSweepPlanMajority(t *testing.T) {
	a := sink.Params{Algorithm: "propose", N: 4, Trace: "decisions", SweepSeed: 7}
	b := a
	b.SweepSeed = 8
	larger, smaller := a, b
	if larger.Fingerprint() < smaller.Fingerprint() {
		larger, smaller = smaller, larger
	}
	rejected := func(recs []sink.Record) sink.Params {
		t.Helper()
		plan, err := replay.PlanOf("trials", recs)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if plan.Check(rec) != nil {
				return rec.Params
			}
		}
		t.Fatal("a set of two configurations passed one plan")
		return sink.Params{}
	}
	tie := []sink.Record{sweepRecords(larger, 2)[0], sweepRecords(smaller, 2)[1]}
	if rejected(tie) != smaller {
		t.Fatal("tie not broken toward the larger fingerprint")
	}
	tie[0], tie[1] = tie[1], tie[0]
	if rejected(tie) != smaller {
		t.Fatal("tie-break depends on record order")
	}
	most := append(sweepRecords(smaller, 3), sweepRecords(larger, 4)[3])
	if rejected(most) != larger {
		t.Fatal("plan not taken from the majority params")
	}
}
