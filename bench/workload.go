package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/telemetry"
)

const (
	// setupReps is how many times the daemon workload starts a supervisor;
	// setup_s is the median.
	setupReps = 31
	// reloadEvery is how many replays verify-full runs between two loads of
	// the recorded shard.
	reloadEvery = 200
	// minUnits is the fewest timed units (jobs, replays) a run measures, so a
	// tiny budget still yields latency percentiles.
	minUnits = 3
	// pollEvery is how often the daemon client polls a submitted job.
	pollEvery = 500 * time.Microsecond
	// journalCapacity is the event ring cmd/sweepd installs by default.
	journalCapacity = 8192
)

// shape fixes a workload's configuration and its sizes at scale 1.
type shape struct {
	procs int    // n, the number of processes
	flags string // configuration flags besides -values and -seed
	// jobTrials is the trial count of one job (sweep-*, daemon-resume) or of
	// the recorded shard (verify-full).
	jobTrials int
	trace     tracePlan
}

// values lists the initial values: "3,7,7,1" at n=4, and (i·7919+1) mod 2^16
// otherwise, which keeps most values distinct so bit-by-bit walks all 16 bits.
func (sh shape) values() string {
	if sh.procs == 4 {
		return "3,7,7,1"
	}
	vs := make([]string, sh.procs)
	for i := range vs {
		vs[i] = strconv.Itoa((i*7919 + 1) % 65536)
	}
	return strings.Join(vs, ",")
}

// args renders the configuration flag-args of a job with config seed seed.
func (sh shape) args(seed int64) []string {
	a := []string{"-values", sh.values()}
	a = append(a, strings.Fields(sh.flags)...)
	return append(a, "-seed", strconv.FormatInt(seed, 10))
}

// workload is one named input set and the loop that drives it.
type workload struct {
	name  string
	shape shape
	run   func(e *env, sh shape) (*tally, error)
}

const (
	smallFlags = "-loss prob -p 0.3 -cst 8 -schedule 1"
	denseFlags = "-domain 65536 -loss prob -p 0.3 -cst 16 -schedule 1"
)

var workloads = []workload{
	// Per-trial set-up (sim) and record encode/write (sink) dominate; with
	// ~9 (receiver, sender) pairs per round, delivery changes should not
	// move it.
	{
		name: "sweep-small",
		shape: shape{procs: 4, flags: smallFlags, jobTrials: 5000,
			trace: tracePlan{sweepTrials: 12000, modelTrials: 600, jobs: 4, jobTrials: 4000}},
		run: runSweep,
	},
	// The quadratic delivery loop (engine self time plus the loss plan)
	// dominates; set-up and sink are negligible.
	{
		name: "sweep-dense",
		shape: shape{procs: 256, flags: denseFlags, jobTrials: 8,
			trace: tracePlan{sweepTrials: 48, modelTrials: 4, jobs: 3, jobTrials: 8}},
		run: runSweep,
	},
	// The engine layer used differently — full trace plus Definition-11
	// validation — and the sink read instead of written: trace-arena and
	// validation changes show here and nowhere else.
	{
		name: "verify-full",
		shape: shape{procs: 64, flags: denseFlags, jobTrials: 4000,
			trace: tracePlan{sweepTrials: 600, modelTrials: 400, jobs: 3, jobTrials: 200}},
		run: runVerify,
	},
	// Submit-to-done latency of sweepd jobs: the sink is read (salvage) as
	// well as written, plus the report and the journal export. Salvage
	// changes show here; sweep-small salvages nothing.
	{
		name: "daemon-resume",
		shape: shape{procs: 4, flags: smallFlags, jobTrials: 4000,
			trace: tracePlan{sweepTrials: 12000, modelTrials: 300, jobs: 12, jobTrials: 4000}},
		run: runDaemon,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is one run's settings.
type env struct {
	seed    int64
	seconds float64
	scale   float64
	nproc   int
	dir     string // this run's scratch directory, removed afterwards
	// traceFile receives a traced run's spans, one JSON object per line.
	traceFile string
}

// count scales a size, never below one.
func (e *env) count(n int) int { return max(1, int(math.Round(float64(n)*e.scale))) }

// cfgSeed is the configuration seed of the run's k-th job: every job of a
// run, and every run seed, simulates different trials, so no result can be
// served from an earlier one.
func (e *env) cfgSeed(k int) int64 { return e.seed*1_000_000 + int64(k) }

// runSlices is how many consecutive slices of a run's timed units the
// wall-time metrics are computed over; each metric is the median across the
// slices, so a burst of load from outside the process that covers fewer than
// half of them does not move it.
const runSlices = 9

// unit is one timed unit of work (a job or a replay) that passed its checks.
type unit struct {
	seconds        float64
	trials, rounds int64
}

// tally accumulates an untraced run's measurements.
type tally struct {
	attempted, failed int
	trials            int64   // executed in the timed phase
	bytes, records    int64   // shard bytes and the records they hold
	busy              float64 // seconds of timed work
	units             []unit  // in the order they ran
	setups            []float64
	mallocs, allocB   uint64
	err               error // first correctness failure, for the report
}

// done records a timed unit that passed its checks.
func (t *tally) done(u unit) {
	t.units = append(t.units, u)
	t.trials += u.trials
}

// fail records a correctness failure of n attempted units.
func (t *tally) fail(n int, err error) {
	t.failed += n
	if t.err == nil {
		t.err = err
	}
}

func (t *tally) result() (Result, error) {
	trials := float64(max(t.trials, 1))
	m, err := metricSet(endToEnd, map[string]float64{
		"trials_per_s":          t.overSlices(trialRate),
		"rounds_per_s":          t.overSlices(roundRate),
		"bytes_per_record":      float64(t.bytes) / float64(max(t.records, 1)),
		"setup_s":               median(t.setups),
		"job_latency_p50_s":     t.overSlices(latency(50)),
		"job_latency_p90_s":     t.overSlices(latency(90)),
		"allocs_per_trial":      float64(t.mallocs) / trials,
		"alloc_bytes_per_trial": float64(t.allocB) / trials,
		"peak_rss_mb":           peakRSSMB(),
	})
	return Result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, err
}

// overSlices cuts the run's units into runSlices consecutive slices of about
// equal count (fewer when there are fewer units), applies f to each, and
// returns the median of the results.
func (t *tally) overSlices(f func([]unit) float64) float64 {
	n := min(runSlices, len(t.units))
	if n == 0 {
		return 0
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = f(t.units[i*len(t.units)/n : (i+1)*len(t.units)/n])
	}
	return median(vs)
}

// trialRate and roundRate are a slice's trials and rounds per second of work.
func trialRate(us []unit) float64 { return rate(us, func(u unit) int64 { return u.trials }) }
func roundRate(us []unit) float64 { return rate(us, func(u unit) int64 { return u.rounds }) }

func rate(us []unit, count func(unit) int64) float64 {
	var n int64
	var s float64
	for _, u := range us {
		n += count(u)
		s += u.seconds
	}
	return float64(n) / s
}

// latency is the p-th percentile of a slice's unit latencies.
func latency(p float64) func([]unit) float64 {
	return func(us []unit) float64 {
		ds := make([]float64, len(us))
		for i, u := range us {
			ds[i] = u.seconds
		}
		return percentile(ds, p)
	}
}

// memMark is a point on the process's allocation counters.
type memMark struct{ mallocs, bytes uint64 }

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc}
}

func (t *tally) addMem(a, b memMark) {
	t.mallocs += b.mallocs - a.mallocs
	t.allocB += b.bytes - a.bytes
}

// runSweep drives a sweep workload: back-to-back jobs.Execute calls, each a
// fresh trials spec at workers = nproc written to a shard file that is
// checked and deleted.
func runSweep(e *env, sh shape) (*tally, error) {
	telemetry.Enable() // as in cmd/sweeprun and cmd/sweepd
	t := &tally{}
	trials := e.count(sh.jobTrials)
	path := filepath.Join(e.dir, "shard.jsonl")
	spec := func(k int) jobs.Spec {
		return jobs.Spec{Trials: trials, Config: sh.args(e.cfgSeed(k)), Workers: e.nproc, Out: path}
	}
	// Set-up is what a job does before its first trial: compile the plan and
	// salvage (here: create) the output file. It is sampled before every
	// timed job, so its median spans the whole run.
	setup := func(k int) error {
		start := time.Now()
		segs, err := jobs.BuildSegments(spec(k))
		if err != nil {
			return err
		}
		f, err := jobs.Salvage(path, segs, make([]int, len(segs)), io.Discard)
		if err != nil {
			return err
		}
		t.setups = append(t.setups, time.Since(start).Seconds())
		f.Close()
		return os.Remove(path)
	}
	check := newChecker(sh)
	job := func(k int, timed bool) error {
		if timed {
			if err := setup(k); err != nil {
				return err
			}
		}
		m0 := readMem()
		start := time.Now()
		rep, err := jobs.Execute(context.Background(), spec(k), io.Discard)
		d := time.Since(start).Seconds()
		m1 := readMem()
		var sc shardCheck
		if err == nil {
			var b []byte
			if b, err = os.ReadFile(path); err == nil {
				sc, err = check.shard(b, e.cfgSeed(k), 0, trials)
			}
		}
		if err == nil && (rep.Status != telemetry.StatusOK || rep.Trials.Executed != trials) {
			err = fmt.Errorf("report status %s, executed %d of %d", rep.Status, rep.Trials.Executed, trials)
		}
		os.Remove(path)
		os.Remove(path + ".report.json")
		if err != nil {
			err = fmt.Errorf("job %d: %w", k, err)
		}
		if !timed {
			return err
		}
		t.attempted += trials
		t.busy += d
		if err != nil {
			t.fail(trials, err)
			return nil
		}
		t.failed += sc.bad
		t.done(unit{d, int64(trials), sc.rounds})
		t.bytes += sc.bytes
		t.records += int64(trials)
		t.addMem(m0, m1)
		return nil
	}
	if err := job(-1, false); err != nil { // warm-up
		return nil, err
	}
	for k := 0; t.busy < e.seconds || k < minUnits; k++ {
		if err := job(k, true); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// runVerify drives verify-full: an untimed recording of a shard, then
// Config.Replay of its records on one goroutine, releasing each execution.
func runVerify(e *env, sh shape) (*tally, error) {
	t := &tally{}
	path := filepath.Join(e.dir, "recorded.jsonl")
	args := sh.args(e.cfgSeed(0))
	n := e.count(sh.jobTrials)
	if _, err := jobs.Execute(context.Background(), jobs.Spec{Trials: n, Config: args, Workers: e.nproc, Out: path}, io.Discard); err != nil {
		return nil, fmt.Errorf("recording the shard: %w", err)
	}
	// Set-up is loading the recorded run: configuration plus shard. It is
	// repeated every reloadEvery replays, so its median spans the whole run;
	// the reloads' allocations are kept out of the replays'.
	var (
		cfg     adhocconsensus.Config
		recs    []adhocconsensus.TrialResult
		size    int64
		loadMem memMark
	)
	load := func() error {
		recs = nil // the previous load is garbage before the next one starts
		m0 := readMem()
		start := time.Now()
		var err error
		cfg, recs, size, err = loadRecorded(path, args)
		t.setups = append(t.setups, time.Since(start).Seconds())
		m1 := readMem()
		loadMem.mallocs += m1.mallocs - m0.mallocs
		loadMem.bytes += m1.bytes - m0.bytes
		return err
	}
	if err := load(); err != nil {
		return nil, err
	}
	if len(recs) != n {
		return nil, fmt.Errorf("recorded shard holds %d records, want %d", len(recs), n)
	}
	t.bytes, t.records = size, int64(n)
	replay := func(r adhocconsensus.TrialResult) error {
		rep, err := cfg.Replay(r)
		if err != nil {
			return err
		}
		rep.Report.Execution.Release()
		if !rep.OK() || rep.Report.Rounds != r.Rounds {
			return fmt.Errorf("trial %d: replay digest=%t (%s) trace=%t (%s) rounds %d, recorded %d",
				r.Trial, rep.DigestOK, rep.Mismatch, rep.TraceValid, rep.TraceError, rep.Report.Rounds, r.Rounds)
		}
		return nil
	}
	for _, r := range recs[:min(3, len(recs))] { // warm-up
		if err := replay(r); err != nil {
			return nil, err
		}
	}
	loadMem = memMark{}
	m0 := readMem()
	for k := 0; t.busy < e.seconds || k < minUnits; k++ {
		if k > 0 && k%reloadEvery == 0 {
			if err := load(); err != nil {
				return nil, err
			}
		}
		r := recs[k%len(recs)]
		start := time.Now()
		err := replay(r)
		d := time.Since(start).Seconds()
		t.attempted++
		t.busy += d
		if err != nil {
			t.fail(1, err)
			continue
		}
		t.done(unit{d, 1, int64(r.Rounds)})
	}
	m1 := readMem()
	t.addMem(m0, memMark{m1.mallocs - loadMem.mallocs, m1.bytes - loadMem.bytes})
	return t, nil
}

// loadRecorded parses the configuration flags and loads a shard as the
// public per-trial results Config.Replay audits.
func loadRecorded(path string, args []string) (adhocconsensus.Config, []adhocconsensus.TrialResult, int64, error) {
	cfg, err := parseConfig(args)
	if err != nil {
		return cfg, nil, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return cfg, nil, 0, err
	}
	defer f.Close()
	recs, err := sink.ReadRecords(f)
	if err != nil {
		return cfg, nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return cfg, nil, 0, err
	}
	out := make([]adhocconsensus.TrialResult, len(recs))
	for i, rec := range recs {
		out[i] = trialResultOf(rec)
	}
	return cfg, out, fi.Size(), nil
}

// trialResultOf is the public per-trial result a record digests.
func trialResultOf(rec sink.Record) adhocconsensus.TrialResult {
	vals := make([]adhocconsensus.Value, len(rec.DecidedValues))
	for i, v := range rec.DecidedValues {
		vals[i] = model.Value(v)
	}
	return adhocconsensus.TrialResult{
		Trial:             rec.Index,
		Seed:              rec.Seed,
		Fingerprint:       rec.Fingerprint,
		Rounds:            rec.Rounds,
		Decided:           rec.AllDecided,
		Decisions:         rec.Decisions,
		DecidedValues:     vals,
		LastDecisionRound: rec.LastDecisionRound,
		AgreementOK:       rec.AgreementOK,
		ValidityOK:        rec.ValidityOK,
		TerminationOK:     rec.TerminationOK,
		Err:               rec.Err,
	}
}

// parseConfig builds the public configuration from flag-args exactly as a
// trials spec does.
func parseConfig(args []string) (adhocconsensus.Config, error) {
	fs := flagSet("config")
	cf := cli.RegisterConfig(fs)
	if err := fs.Parse(args); err != nil {
		return adhocconsensus.Config{}, err
	}
	return cf.Config()
}

// runDaemon drives daemon-resume: an in-process supervisor set up as
// cmd/sweepd sets it up, and one client submitting jobs one at a time. Each
// job's output file already holds a torn half of its shard, so every job
// salvages, resumes, and writes its report and journal.
func runDaemon(e *env, sh shape) (*tally, error) {
	telemetry.Enable()
	t := &tally{}
	full := max(2, e.count(sh.jobTrials))
	dir := filepath.Join(e.dir, "sweepd")
	var (
		sup *jobs.Supervisor
		jal *events.Journal
	)
	// Set-up is the daemon's start: journal, supervisor (manifest load), loop.
	for i := range setupReps {
		if err := resetDir(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		jal = events.New(events.Options{Capacity: journalCapacity})
		events.Activate(jal)
		s, err := jobs.New(jobs.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		s.Start()
		t.setups = append(t.setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := s.Drain(context.Background()); err != nil {
				return nil, err
			}
			continue
		}
		sup = s
	}
	defer events.Activate(nil)
	// Drain is idempotent: this one stops the supervisor on an early return.
	defer sup.Drain(context.Background())
	check := newChecker(sh)
	var jobFiles []string
	job := func(k int, timed bool) error {
		args := sh.args(e.cfgSeed(k))
		path := filepath.Join(dir, fmt.Sprintf("job-%d.jsonl", k))
		var ref string
		if k == 0 {
			ref = path + ".ref"
		}
		torn, err := prepareTorn(path, ref, args, full, e.nproc, jal)
		if err != nil {
			return err
		}
		m0 := readMem()
		start := time.Now()
		st, err := sup.Submit(jobs.Spec{Trials: full, Config: args, Workers: e.nproc, Out: path})
		if err != nil {
			return fmt.Errorf("job %d: submit: %w", k, err)
		}
		for !st.State.Terminal() {
			time.Sleep(pollEvery)
			st, _ = sup.Job(st.ID)
		}
		d := time.Since(start).Seconds()
		m1 := readMem()
		jobFiles = append(jobFiles, path)
		sc, err := checkResumed(check, st, torn, e.cfgSeed(k), full)
		if !timed {
			return err
		}
		t.attempted++
		t.busy += d
		if err != nil {
			t.fail(1, fmt.Errorf("job %d: %w", k, err))
			return nil
		}
		t.done(unit{d, int64(full - torn.records), sc.rounds})
		t.bytes += sc.bytes
		t.records += int64(full)
		t.addMem(m0, m1)
		return nil
	}
	if err := job(-1, false); err != nil { // warm-up
		return nil, err
	}
	for k := 0; t.busy < e.seconds || k < minUnits; k++ {
		if err := job(k, true); err != nil {
			return nil, err
		}
	}
	if err := sup.Drain(context.Background()); err != nil {
		return nil, err
	}
	// Every attempt exported its journal; the exports are closed once the
	// supervisor has drained.
	for _, p := range jobFiles {
		evs, err := events.ReadEventsFile(p + ".events.jsonl")
		if err == nil && events.CountTypes(evs)[events.TypeSalvage] != 1 {
			err = fmt.Errorf("%s.events.jsonl: %d salvage events, want 1", p, events.CountTypes(evs)[events.TypeSalvage])
		}
		if err != nil {
			t.fail(1, err)
		}
	}
	return t, nil
}

// tornInput is a prepared daemon job input: the first half of the job's
// shard with its last record cut in the middle.
type tornInput struct {
	prefix  []byte // the valid records the job must keep byte for byte
	records int    // how many records prefix holds
	ref     []byte // the uninterrupted shard, when one was asked for
}

// prepareTorn writes the torn half-shard a daemon job starts from, and when
// ref is set, also records the uninterrupted shard there for comparison. The
// journal is detached meanwhile, so preparation leaves no events in the
// previous job's export.
func prepareTorn(path, ref string, args []string, full, workers int, jal *events.Journal) (tornInput, error) {
	events.Activate(nil)
	defer events.Activate(jal)
	var in tornInput
	record := func(out string, trials int) ([]byte, error) {
		if _, err := jobs.Execute(context.Background(), jobs.Spec{Trials: trials, Config: args, Workers: workers, Out: out}, io.Discard); err != nil {
			return nil, err
		}
		os.Remove(out + ".report.json")
		b, err := os.ReadFile(out)
		os.Remove(out)
		return b, err
	}
	if ref != "" {
		b, err := record(ref, full)
		if err != nil {
			return in, err
		}
		in.ref = b
	}
	half, err := record(path, full/2)
	if err != nil {
		return in, err
	}
	last := bytes.LastIndexByte(half[:len(half)-1], '\n') + 1
	cut := last + (len(half)-last)/2
	in.prefix = half[:last]
	in.records = bytes.Count(in.prefix, []byte{'\n'})
	return in, os.WriteFile(path, half[:cut], 0o644)
}

// checkResumed checks a finished daemon job: done, the report's accounting,
// every record, the salvaged prefix kept byte for byte, and, when a
// reference was recorded, the whole file equal to it.
func checkResumed(check *checker, st jobs.Status, in tornInput, seed int64, full int) (shardCheck, error) {
	if st.State != jobs.StateDone || st.ExitCode != 0 {
		return shardCheck{}, fmt.Errorf("state %s exit %d: %s", st.State, st.ExitCode, st.Error)
	}
	if tr := st.Report.Trials; tr.Salvaged != in.records || tr.Executed != full-in.records {
		return shardCheck{}, fmt.Errorf("report salvaged %d executed %d, want %d and %d", tr.Salvaged, tr.Executed, in.records, full-in.records)
	}
	path := st.Spec.Out
	b, err := os.ReadFile(path)
	switch {
	case err != nil:
		return shardCheck{}, err
	case !bytes.HasPrefix(b, in.prefix):
		return shardCheck{}, fmt.Errorf("%s: salvaged prefix changed", path)
	case in.ref != nil && !bytes.Equal(b, in.ref):
		return shardCheck{}, fmt.Errorf("%s: resumed shard differs from the uninterrupted one", path)
	}
	sc, err := check.shard(b[len(in.prefix):], seed, in.records, full-in.records)
	if err != nil {
		return sc, fmt.Errorf("%s: %w", path, err)
	}
	sc.bytes = int64(len(b))
	os.Remove(path + ".report.json")
	return sc, os.Remove(path)
}

// checker verifies shard records independently of the program's own
// verdicts where it can: identity from the seed schedule, and validity
// against the configured initial values.
type checker struct {
	procs   int
	initial map[uint64]bool
}

func newChecker(sh shape) *checker {
	c := &checker{procs: sh.procs, initial: map[uint64]bool{}}
	for _, v := range strings.Split(sh.values(), ",") {
		u, _ := strconv.ParseUint(v, 10, 64)
		c.initial[u] = true
	}
	return c
}

// shardCheck is what a checked run of records holds.
type shardCheck struct {
	bad    int   // records that fail a check
	rounds int64 // their rounds
	bytes  int64 // the whole shard's size
}

// shard checks that b holds exactly the n trials records from index first
// on of config seed seed, each a decided, agreeing, valid trial.
func (c *checker) shard(b []byte, seed int64, first, n int) (shardCheck, error) {
	recs, err := sink.ReadRecords(bytes.NewReader(b))
	if err != nil {
		return shardCheck{}, err
	}
	if len(recs) != n {
		return shardCheck{}, fmt.Errorf("%d records, want %d", len(recs), n)
	}
	sc := shardCheck{bytes: int64(len(b))}
	for i, rec := range recs {
		if !c.ok(rec, first+i, seed) {
			sc.bad++
		}
		sc.rounds += int64(rec.Rounds)
	}
	return sc, nil
}

func (c *checker) ok(rec sink.Record, i int, seed int64) bool {
	return rec.Exp == "trials" && rec.Index == i && rec.Seed == sim.TrialSeed(seed, 0, i) && rec.Err == "" &&
		rec.AllDecided && rec.AgreementOK && rec.ValidityOK && rec.TerminationOK &&
		rec.Decisions == c.procs && len(rec.DecidedValues) == 1 && c.initial[rec.DecidedValues[0]] &&
		rec.Rounds > 0 && rec.LastDecisionRound <= rec.Rounds
}

// resetDir empties dir, creating it if needed.
func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
