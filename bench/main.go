// Command bench is the sweep service's benchmark. It drives four workloads
// through the production entry points — jobs.Execute, jobs.Supervisor, and
// Config.Replay — checks every output, and prints each end-to-end metric by
// name with its unit and the core count it was measured on.
//
//	go run . -seed 1                 every workload, each in a fresh child process
//	go run . -seed 1 -trace          also a traced run per workload: per-layer metrics
//	go run . -runs 5 -out r.json     five runs of each, rows appended to r.json
//	go run . -workload sweep-small -seed 3 -seconds 10 -trace 0
//	                                 one run in this process; the last line of
//	                                 standard output is the result as JSON
//	go run . compare A.json B.json   verdicts per (workload, metric)
//
// See README.md for the workloads, the metrics, and what each layer metric
// is expected to move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

const (
	// outDir holds traces and per-run scratch files, relative to the
	// benchmark's directory.
	outDir = "out"
	// defaultSeconds matches run_seconds in BENCHMARK.json.
	defaultSeconds = 18
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func flagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// normalizeArgs rewrites "-trace 0|1" (a separate value, as the harness
// passes it) into the "-trace=false|true" form the flag package reads for a
// boolean flag; a bare "-trace" stays as it is.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if v, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+strconv.FormatBool(v))
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flagSet("bench")
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload in this process and print its result as the last line (default: every workload, each in a child process)")
		seed    = fs.Int64("seed", 1, "workload seed: every input derives from it")
		seconds = fs.Float64("seconds", defaultSeconds, "seconds of work each run measures")
		trace   = fs.Bool("trace", false, "with -workload: do the traced run (per-layer metrics) instead; otherwise: add a traced run per workload")
		runs    = fs.Int("runs", 1, "runs of each workload")
		out     = fs.String("out", "", "append every run's row, with provenance, to this results file")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: flags only; -seconds and -runs must be positive")
		return 2
	}
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: no workload %q\n", *name)
			return 2
		}
		return runOne(w, *seed, *seconds, *trace, stdout, stderr)
	}
	modes := []bool{false}
	if *trace {
		modes = append(modes, true)
	}
	var rows []Row
	code := 0
	for range *runs {
		for _, w := range workloads {
			for _, traced := range modes {
				row, err := runChild(w.name, *seed, *seconds, traced, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					code = 1
					continue
				}
				rows = append(rows, row)
				if !row.Correct {
					code = 1
				}
			}
		}
	}
	if *out != "" {
		if err := appendRows(*out, rows); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// runOne runs one workload in this process: the untraced run, or the traced
// run. Output is human-readable metric lines, a provenance line, and the
// result JSON as the last line. Exit status 1 means the run failed or an
// output was wrong.
func runOne(w workload, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) int {
	e := &env{
		seed: seed, seconds: seconds, scale: 1, nproc: runtime.NumCPU(),
		dir:       filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", w.name, seed, os.Getpid())),
		traceFile: filepath.Join(outDir, fmt.Sprintf("%s-%d.trace.jsonl", w.name, seed)),
	}
	if err := resetDir(e.dir); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	res, err := measure(e, w, traced)
	if err != nil && res.Metrics == nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: incorrect output: %v\n", w.name, err)
	}
	prov := provenance(seed, seconds, e.scale)
	printResult(stdout, w.name, traced, res, prov)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	rj, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", rj)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs a workload's untraced or traced run. A returned result with
// metrics and an error is a complete run whose outputs were wrong.
func measure(e *env, w workload, traced bool) (Result, error) {
	if traced {
		return runTraced(e, w)
	}
	t, err := w.run(e, w.shape)
	if err != nil {
		return Result{}, err
	}
	res, err := t.result()
	if err != nil {
		return Result{}, err
	}
	return res, t.err
}

func printResult(w io.Writer, name string, traced bool, res Result, prov Provenance) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%-14s %-33s %16.6g %-5s nproc=%d gomaxprocs=%d\n", name, d.name, m.Value, m.Unit, prov.NProc, prov.GOMAXPROCS)
	}
	fmt.Fprintf(w, "%-14s correct=%t attempted=%d failed=%d seed=%d seconds=%g\n", name, res.Correct, res.Attempted, res.Failed, prov.Seed, prov.Seconds)
}

// runChild runs one workload in a fresh child process at GOMAXPROCS = nproc
// and returns its row. The child's metric lines are echoed.
func runChild(name string, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) (Row, error) {
	exe, err := os.Executable()
	if err != nil {
		return Row{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace="+strconv.FormatBool(traced))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	row := Row{Workload: name, Trace: traced}
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "provenance "); ok {
			if err := json.Unmarshal([]byte(p), &row.Provenance); err != nil {
				return row, fmt.Errorf("provenance line: %w", err)
			}
			continue
		}
		if strings.HasPrefix(line, "{") {
			last = line
			continue
		}
		fmt.Fprintln(stdout, line)
	}
	if last == "" {
		if runErr == nil {
			runErr = fmt.Errorf("no result line")
		}
		return row, runErr
	}
	if err := json.Unmarshal([]byte(last), &row.Result); err != nil {
		return row, fmt.Errorf("result line: %w", err)
	}
	return row, nil
}

// appendRows adds rows to a results file, creating it if needed.
func appendRows(path string, rows []Row) error {
	rf := &ResultsFile{}
	if _, err := os.Stat(path); err == nil {
		if rf, err = readResults(path); err != nil {
			return err
		}
	}
	rf.Rows = append(rf.Rows, rows...)
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
