package replay

import (
	"fmt"
	"math"

	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// SweepExp labels the records of a configuration sweep: their group in a
// shard file, next to the experiments' IDs.
const SweepExp = "trials"

// Plan is the shard-record contract of one record group — one experiment's
// records, or a configuration sweep's — and the one place that decides
// whether a record is the record this build writes at its index. Resume
// checks a salvaged prefix with it (jobs.Segment.Verify), merge and replay
// check every record with it before folding, verify audits only records it
// accepts, and sweeprun merge's per-shard verdicts run the same checks on
// each file.
type Plan struct {
	exp  string
	unit string // "trial" or "item", for messages
	noun string // what derives the records: "grid", "pipeline" or "sweep"
	n    int    // the group covers indices 0..n-1
	// want returns the identity fields of the record at index i: seed,
	// params, fingerprint, and a work item's kind and params.
	want func(i int) sink.Record
	// work marks a work pipeline, whose outcome digests are its table's
	// only input.
	work bool
}

// GridPlan is the plan of a scenario-grid experiment: record i is scenario
// i's trial, with its seed, params and their fingerprint.
func GridPlan(name string, scenarios []sim.Scenario) *Plan {
	params := make([]sink.Params, len(scenarios))
	for i, s := range scenarios {
		params[i] = sink.ParamsOf(s)
	}
	return &Plan{exp: name, unit: "trial", noun: "grid", n: len(scenarios), want: func(i int) sink.Record {
		return sink.Record{Seed: scenarios[i].Seed, Params: params[i], Fingerprint: params[i].Fingerprint()}
	}}
}

// WorkPlan is the plan of a work-item pipeline: record i is item i, with
// its kind, params, seed and fingerprint.
func WorkPlan(name string, items []sink.WorkItem) *Plan {
	return &Plan{exp: name, unit: "item", noun: "pipeline", n: len(items), work: true, want: func(i int) sink.Record {
		return sink.RecordOfItem(name, items[i], "")
	}}
}

// SweepPlan is the plan of a configuration sweep recorded with params:
// every trial carries params and their fingerprint, and trial i ran with
// seed sim.TrialSeed(params.SweepSeed, 0, i). A sweep's trial count is not
// recorded, so any non-negative index belongs to it.
func SweepPlan(params sink.Params) *Plan {
	fp := params.Fingerprint()
	return &Plan{exp: SweepExp, unit: "trial", noun: "sweep", n: math.MaxInt, want: func(i int) sink.Record {
		return sink.Record{Seed: sim.TrialSeed(params.SweepSeed, 0, i), Params: params, Fingerprint: fp}
	}}
}

// PlanOf returns the plan of the record group name: an experiment's from
// this build's grid or item list, and a configuration sweep's (SweepExp)
// from the params most of recs carry — the producing configuration travels
// only in the records — with a tie going to the larger fingerprint.
func PlanOf(name string, recs []sink.Record) (*Plan, error) {
	if name == SweepExp {
		return SweepPlan(majorityParams(recs)), nil
	}
	e, err := experiments.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if g, ok := e.Grid(); ok {
		scenarios, _, err := g.Build()
		if err != nil {
			return nil, err
		}
		return GridPlan(name, scenarios), nil
	}
	w, _ := e.Work()
	items, _, _, err := w.Build()
	if err != nil {
		return nil, err
	}
	return WorkPlan(name, items), nil
}

// majorityParams returns the params most records carry. Ties go to the
// larger fingerprint, then to the first seen, so the choice does not depend
// on record order.
func majorityParams(recs []sink.Record) sink.Params {
	counts := make(map[sink.Params]int)
	var order []sink.Params
	for _, rec := range recs {
		if counts[rec.Params] == 0 {
			order = append(order, rec.Params)
		}
		counts[rec.Params]++
	}
	var best sink.Params
	bestN, bestFP := 0, ""
	for _, p := range order {
		n, fp := counts[p], p.Fingerprint()
		if n > bestN || (n == bestN && fp > bestFP) {
			best, bestN, bestFP = p, n, fp
		}
	}
	return best
}

// Check decides whether rec is the record this plan writes at rec.Index. It
// checks identity only, in this order: experiment label, index, seed, seed
// schedule (as a *sink.ScheduleMismatchError), params, a work item's kind
// and params, and fingerprint. Outcomes, quarantines included, are
// whatever the recorded run produced.
func (p *Plan) Check(rec sink.Record) error {
	if rec.Exp != p.exp {
		return fmt.Errorf("record belongs to %q, expected %s", rec.Exp, p.exp)
	}
	if rec.Index < 0 || rec.Index >= p.n {
		return fmt.Errorf("%s %d outside this build's %d-%s %s", p.unit, rec.Index, p.n, p.unit, p.noun)
	}
	want := p.want(rec.Index)
	got, sched := rec.Params.SeedScheduleVersion(), want.Params.SeedScheduleVersion()
	switch {
	case rec.Seed != want.Seed:
		return fmt.Errorf("%s %d seed %d does not match this build's seed schedule for the %s (%d)",
			p.unit, rec.Index, rec.Seed, p.noun, want.Seed)
	case got != sched:
		return &sink.ScheduleMismatchError{Index: rec.Index, Got: got, Want: sched}
	case rec.Params != want.Params:
		return fmt.Errorf("%s %d was recorded under different configuration parameters than this build's %s",
			p.unit, rec.Index, p.noun)
	case rec.Item != want.Item || rec.ItemParams != want.ItemParams:
		return fmt.Errorf("%s %d recorded as %s(%s), this build's %s derives %s(%s)",
			p.unit, rec.Index, rec.Item, rec.ItemParams, p.noun, want.Item, want.ItemParams)
	case rec.Fingerprint != want.Fingerprint:
		return fmt.Errorf("%s %d fingerprint %s does not match this build's %s (%s)",
			p.unit, rec.Index, rec.Fingerprint, p.noun, want.Fingerprint)
	}
	return nil
}

// CheckGroup runs the per-record checks a merge runs over records of the
// plan's group: Check on each, one record per index, and for a work
// pipeline no quarantined item — its outcome digests are the table's only
// input, while resume, which checks identity only, keeps such records.
// sweeprun merge runs it on each shard file to name the shards a rejected
// set's fault lies in.
func (p *Plan) CheckGroup(recs []sink.Record) error {
	seen := make(map[int]bool, len(recs))
	for _, rec := range recs {
		if err := p.Check(rec); err != nil {
			return err
		}
		if seen[rec.Index] {
			return fmt.Errorf("duplicate record for %s %d (overlapping shards?)", p.unit, rec.Index)
		}
		seen[rec.Index] = true
		if p.work && rec.Err != "" {
			return fmt.Errorf("%s %d (%s) recorded an execution error: %s", p.unit, rec.Index, rec.Item, rec.Err)
		}
	}
	return nil
}

// merge folds the group's records into index order: CheckGroup, then a
// complete cover of the plan's indices.
func (p *Plan) merge(recs []sink.Record) ([]sim.Result, error) {
	if err := p.CheckGroup(recs); err != nil {
		return nil, err
	}
	results, err := sink.Merge(recs)
	if err != nil {
		return nil, err
	}
	if p.n != math.MaxInt && len(results) != p.n {
		return nil, fmt.Errorf("replay: %d %ss merged, this build's %s has %d — incomplete shard set",
			len(results), p.unit, p.noun, p.n)
	}
	return results, nil
}
