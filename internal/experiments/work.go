package experiments

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// This file is the work-item layer: the generalization of scenario grids to
// the bespoke experiment pipelines (the lower-bound constructions T6/T7/T9,
// the A3 substrates, the M1 multihop floods). A WorkExperiment declares its
// trials as a deterministic list of serializable sink.WorkItems, executes
// any subset of them through a kind-dispatched run function, and folds the
// canonical outcome digests back into its table — so ShardScenarios-style
// partitioning, the JSONL sink, and replay's render-without-rerun serve
// EVERY experiment, not just the scenario grids.

// WorkRunFunc executes one work item and returns its canonical outcome
// digest (an encodeKV string). It must be a pure function of the item:
// items run concurrently and across machines.
type WorkRunFunc func(item sink.WorkItem) (string, error)

// WorkRenderFunc folds outcome digests — index-aligned with the experiment's
// item list — into the rendered table. Renderers are pure functions of the
// outcome slice, so the same renderer serves the in-process run and
// outcomes merged back from sharded JSONL files.
type WorkRenderFunc func(outs []string) (*Table, error)

// WorkExperiment is an experiment whose trials are work items dispatched
// through a registered executor: the bespoke analog of GridExperiment. It
// can be built (items + run + renderer) without running, which is what lets
// cmd/sweeprun shard the items across machines and internal/replay render
// its table from recorded outcomes without re-running anything.
type WorkExperiment struct {
	// Name is the table's short ID.
	Name  string
	build func() ([]sink.WorkItem, WorkRunFunc, WorkRenderFunc, error)
}

// Build returns the experiment's expanded item list, the executor that runs
// one item, and the renderer that folds the outcomes into the table.
func (e WorkExperiment) Build() ([]sink.WorkItem, WorkRunFunc, WorkRenderFunc, error) {
	return e.build()
}

// run executes every item in-process on a pool of workers and renders the
// table. Items run through GuardRun, so a panicking executor surfaces as
// that item's error rather than killing the pool.
func (e WorkExperiment) run(workers int) (*Table, error) {
	items, run, render, err := e.Build()
	if err != nil {
		return nil, err
	}
	run = GuardRun(run)
	outs := make([]string, len(items))
	errs := make([]error, len(items))
	sim.Runner{Workers: workers}.Map(len(items), func(i int) {
		outs[i], errs[i] = run(items[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return render(outs)
}

// ShardItems partitions an expanded item list into its shard-of-shards
// subset by round-robin on the global index, exactly like
// sim.ShardScenarios does for scenario grids: items keep the Index and Seed
// the unsharded list assigns, so the union of the k shards is the full list.
func ShardItems(items []sink.WorkItem, shard, shards int) ([]sink.WorkItem, error) {
	if shards < 1 {
		return nil, fmt.Errorf("experiments: shard count %d < 1", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("experiments: shard %d outside [0,%d)", shard, shards)
	}
	out := make([]sink.WorkItem, sim.ShardLen(len(items), shard, shards))
	for k := range out {
		out[k] = items[shard+k*shards]
	}
	return out, nil
}

// kv is one field of a canonical parameter or outcome encoding.
type kv struct{ k, v string }

// encodeKV renders fields as "k=v" pairs joined by spaces, values
// query-escaped, in the given (fixed) order — a deterministic, JSON-safe
// line fragment that round-trips through decodeKV exactly.
func encodeKV(fields ...kv) string {
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.k)
		b.WriteByte('=')
		b.WriteString(url.QueryEscape(f.v))
	}
	return b.String()
}

// fields is a decoded parameter/outcome encoding with sticky error
// accumulation: renderers read typed fields and check Err() once.
type fields struct {
	m   map[string]string
	err error
}

// decodeKV parses an encodeKV string.
func decodeKV(s string) *fields {
	f := &fields{m: make(map[string]string)}
	if s == "" {
		return f
	}
	for _, part := range strings.Split(s, " ") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			f.fail(fmt.Errorf("experiments: malformed field %q in %q", part, s))
			return f
		}
		dec, err := url.QueryUnescape(v)
		if err != nil {
			f.fail(fmt.Errorf("experiments: field %s of %q: %w", k, s, err))
			return f
		}
		f.m[k] = dec
	}
	return f
}

func (f *fields) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// Err returns the first decode or conversion error.
func (f *fields) Err() error { return f.err }

func (f *fields) str(k string) string {
	v, ok := f.m[k]
	if !ok {
		f.fail(fmt.Errorf("experiments: outcome field %q missing", k))
	}
	return v
}

func (f *fields) int(k string) int {
	n, err := strconv.Atoi(f.str(k))
	if err != nil && f.err == nil {
		f.fail(fmt.Errorf("experiments: outcome field %q: %w", k, err))
	}
	return n
}

func (f *fields) uint64(k string) uint64 {
	n, err := strconv.ParseUint(f.str(k), 10, 64)
	if err != nil && f.err == nil {
		f.fail(fmt.Errorf("experiments: outcome field %q: %w", k, err))
	}
	return n
}

func (f *fields) bool(k string) bool {
	b, err := strconv.ParseBool(f.str(k))
	if err != nil && f.err == nil {
		f.fail(fmt.Errorf("experiments: outcome field %q: %w", k, err))
	}
	return b
}

func (f *fields) float(k string) float64 {
	x, err := strconv.ParseFloat(f.str(k), 64)
	if err != nil && f.err == nil {
		f.fail(fmt.Errorf("experiments: outcome field %q: %w", k, err))
	}
	return x
}

// fmtFloat renders a float so it round-trips exactly through ParseFloat.
func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func fmtBool(b bool) string { return strconv.FormatBool(b) }
