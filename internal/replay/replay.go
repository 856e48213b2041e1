package replay

import (
	"fmt"
	"os"

	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// Run is a loaded set of shard records, grouped by experiment label in
// first-appearance order — the unit the render and verify entry points
// consume.
type Run struct {
	Groups map[string][]sink.Record
	Order  []string
}

// Group folds already-read records into a Run.
func Group(recs []sink.Record) *Run {
	groups, order := sink.GroupByExp(recs)
	return &Run{Groups: groups, Order: order}
}

// LoadFiles reads JSONL shard files and groups their records. Read errors
// carry the offending path and line.
func LoadFiles(paths ...string) (*Run, error) {
	var recs []sink.Record
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		fileRecs, err := sink.ReadRecords(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, fileRecs...)
	}
	return Group(recs), nil
}

// RenderExperiment reproduces one experiment's table from its merged
// records alone — no simulation. Every record must pass the experiment's
// plan (CheckGroup) and the records must cover it; grid records then merge
// into sim.Results and drive the grid renderer, work-item records drive the
// work renderer with their outcome digests. The rendered table is
// byte-identical to the in-process run's.
func RenderExperiment(name string, recs []sink.Record) (*experiments.Table, error) {
	e, err := experiments.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if g, ok := e.Grid(); ok {
		_, results, render, err := mergeGrid(g, recs)
		if err != nil {
			return nil, err
		}
		return render(results)
	}
	w, _ := e.Work()
	items, _, render, err := w.Build()
	if err != nil {
		return nil, err
	}
	if _, err := WorkPlan(name, items).merge(recs); err != nil {
		return nil, err
	}
	outs := make([]string, len(items))
	for _, rec := range recs {
		outs[rec.Index] = rec.Out
	}
	return render(outs)
}

// mergeGrid builds a grid experiment and merges its records through the
// grid's plan — shared by rendering and verification, so records from a
// different grid, version, or seed schedule can neither fold into a
// chimera table nor be audited as this build's executions.
func mergeGrid(e experiments.GridExperiment, recs []sink.Record) ([]sim.Scenario, []sim.Result, experiments.RenderFunc, error) {
	scenarios, render, err := e.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	results, err := GridPlan(e.Name, scenarios).merge(recs)
	if err != nil {
		return nil, nil, nil, err
	}
	return scenarios, results, render, nil
}
