package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports: the object printed as the
// last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// metricDef names a metric and fixes its unit; the lists below are the
// single source of the names BENCHMARK.json must carry (bench_test checks
// both directions).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the sweep service sees, emitted by every
// untraced run.
var endToEnd = []metricDef{
	{"trials_per_s", "1/s"},
	{"rounds_per_s", "1/s"},
	{"bytes_per_record", "B"},
	{"setup_s", "s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"allocs_per_trial", "count"},
	{"alloc_bytes_per_trial", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	{"jobs.build_segments_ms", "ms"},
	{"jobs.salvage_ns_per_record", "ns"},
	{"jobs.stream_ms_per_job", "ms"},
	{"jobs.report_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.supervisor_overhead_ms", "ms"},
	{"sim.materialize_ns_per_trial", "ns"},
	{"sim.materialize_allocs_per_trial", "count"},
	{"sim.digest_ns_per_trial", "ns"},
	{"sim.runner_ns_per_trial", "ns"},
	{"sim.parallel_efficiency", "ratio"},
	{"engine.ns_per_round", "ns"},
	{"engine.self_ns_per_round", "ns"},
	{"engine.self_ns_per_pair", "ns"},
	{"engine.allocs_per_run", "count"},
	{"engine.pairs_per_round", "count"},
	{"engine.senders_per_round", "count"},
	{"cm.advise_ns_per_round", "ns"},
	{"core.message_ns_per_round", "ns"},
	{"core.transition_ns_per_round", "ns"},
	{"loss.plan_ns_per_round", "ns"},
	{"multiset.recv_len_mean", "count"},
	{"multiset.recv_distinct_mean", "count"},
	{"model.trace_record_ns_per_round", "ns"},
	{"model.validate_ns_per_trial", "ns"},
	{"sink.encode_ns_per_record", "ns"},
	{"sink.write_ns_per_mb", "ns"},
	{"sink.read_ns_per_record", "ns"},
	{"events.lines_per_job", "count"},
	{"events.bytes_per_job", "B"},
	{"trace.overhead_frac", "ratio"},
}

// metricSet builds a Result's metrics from values keyed by name, failing
// when a defined metric is missing or an undefined one is present.
func metricSet(defs []metricDef, values map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = Metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, defined %d", len(values), len(defs))
	}
	return out, nil
}

// Provenance says where and how a row was measured.
type Provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

func provenance(seed int64, seconds, scale float64) Provenance {
	return Provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(".."),
		Seed:       seed,
		Seconds:    seconds,
		Scale:      scale,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of the repository at root by reading .git
// directly, so no git process runs; "unknown" outside a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// Row is one run's result with its provenance, as stored in a results file.
type Row struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Result
	Provenance Provenance `json:"provenance"`
}

// ResultsFile is the on-disk shape of a set of runs (bench/results/*.json).
type ResultsFile struct {
	Rows []Row `json:"rows"`
}

func readResults(path string) (*ResultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// MetricSpec is one metric entry of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// BenchSpec is the subset of BENCHMARK.json the benchmark reads.
type BenchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

func readSpec(path string) (*BenchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s BenchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the three cut points Python's statistics.quantiles(data,
// n=4) returns (the default "exclusive" method), so spreads reported here
// match the ones computed from the printed results.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var cut [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*n)
		cut[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return cut[0], cut[1], cut[2]
}

// percentile is the nearest-rank p-th percentile of values (0 < p <= 100).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	k := int(math.Ceil(float64(len(d))*p/100)) - 1
	return d[max(0, min(k, len(d)-1))]
}

func median(values []float64) float64 { return percentile(values, 50) }
