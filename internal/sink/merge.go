package sink

import (
	"fmt"
	"io"
	"sort"

	"adhocconsensus/internal/sim"
)

// ReadRecords decodes a JSONL stream (one shard file) into records: the
// strict mode of ReadRecordsPartial. Every defect that ends a salvage read —
// unparseable JSON, a schema version this build does not understand, and,
// because the writer terminates every record with a newline, a final line
// missing its terminator (how a truncated shard file announces itself even
// when the surviving bytes happen to parse) — fails loudly with its line
// number instead of being cut off.
func ReadRecords(r io.Reader) ([]Record, error) {
	recs, _, torn := ReadRecordsPartial(r)
	if torn != nil {
		return nil, fmt.Errorf("sink: line %d: %w", torn.Line, torn.Err)
	}
	return recs, nil
}

// GroupByExp splits records by experiment label, preserving each group's
// record order and returning the labels in order of first appearance, so a
// merged multi-experiment run renders its tables in the order the shards
// produced them.
func GroupByExp(recs []Record) (map[string][]Record, []string) {
	groups := make(map[string][]Record)
	var order []string
	for _, rec := range recs {
		if _, ok := groups[rec.Exp]; !ok {
			order = append(order, rec.Exp)
		}
		groups[rec.Exp] = append(groups[rec.Exp], rec)
	}
	return groups, order
}

// Merge folds shard records back into the result slice the unsharded
// in-process sweep would have produced: sorted by global index, verified to
// be a complete 0..n-1 cover with no duplicates and no conflicting
// duplicates of one index. The output feeds the same renderers and
// aggregators as an in-process Runner.Sweep, byte-identically.
func Merge(recs []Record) ([]sim.Result, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("sink: no records to merge")
	}
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	out := make([]sim.Result, 0, len(sorted))
	for i, rec := range sorted {
		if i > 0 && rec.Index == sorted[i-1].Index {
			return nil, fmt.Errorf("sink: duplicate record for trial %d (overlapping shards?)", rec.Index)
		}
		if rec.Index != len(out) {
			return nil, fmt.Errorf("sink: trial %d missing (have %d, next record is %d) — incomplete shard set",
				len(out), len(recs), rec.Index)
		}
		out = append(out, rec.Result())
	}
	return out, nil
}

// ScheduleMismatchError reports a record whose seed-schedule version
// differs from the one the merging (or resuming) side expects. It is the
// typed rejection for mixed-schedule inputs: v1 and v2 recordings draw
// different loss patterns from the same seeds, so folding them into one
// sweep would silently compare incomparable trials.
type ScheduleMismatchError struct {
	// Index is the global trial index of the offending record.
	Index int
	// Got is the record's schedule version; Want is the expected one.
	Got, Want int
}

// Error renders the positioned, versioned message.
func (e *ScheduleMismatchError) Error() string {
	return fmt.Sprintf("sink: trial %d was recorded under seed schedule v%d, expected v%d — v1 and v2 recordings cannot mix",
		e.Index, e.Got, e.Want)
}
