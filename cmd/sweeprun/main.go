// Command sweeprun drives the record→replay→verify loop of the streaming
// result pipeline (internal/sink + internal/replay) across machines.
//
// "sweeprun run" executes the i-of-k shard of a sweep and streams one JSONL
// record per trial: the scenario grids of the paper's experiment tables and
// the work-itemized bespoke pipelines (-exp; T1..T5, T8, A1, A2 shard as
// scenario grids, T6, T7, T9, A3, M1 as universal work items), or an
// N-trial sweep of one configuration (-trials, with the same configuration
// flags as consensus-sim). Trial seeds depend only on the sweep seed and
// the GLOBAL trial index, never on the shard layout, so k workers running
// "run -shard 0/k .. (k-1)/k" produce files whose union is byte-identical
// to a single machine's run.
//
// A run is crash-safe end to end. A trial that panics or exceeds
// -trialtimeout does not stop the shard: it streams as a quarantine record
// (err set, digest fields zero) in its ordered slot, and the sweep
// continues. Interrupting a run (SIGINT/SIGTERM) is clean: workers stop
// claiming trials, in-flight trials drain, the JSONL tail is flushed, and
// the process exits with code 5 after printing the command that resumes the
// shard; a second signal kills the process immediately. "sweeprun run
// -resume -o FILE ..." reloads a partial shard file — including one a crash
// or SIGKILL left with a torn final line — salvages its valid record
// prefix, checks each record with its segment's plan (replay.Plan:
// experiment, global index, seed, seed schedule, params, fingerprint),
// truncates the torn tail, and appends only the trials not yet durable, so
// the finished file is byte-identical to an uninterrupted run's.
//
// "sweeprun merge" reads any set of shard files, checks every record with
// its group's plan and that the records form a complete, non-overlapping
// cover, and renders exactly what the in-process single-machine path
// produces (golden-tested byte-identical). When the plan rejects the set,
// it runs the same checks on each file, prints the per-shard verdicts
// identifying the offending file(s), and exits non-zero; -quiet reduces
// success output to one PASS/FAIL line per experiment for CI.
//
// "sweeprun replay" renders the same tables from recorded results alone —
// no simulation runs; the engine is never invoked. It is the
// render-without-rerun face of internal/replay: re-render a month-old run
// from its merged JSONL, byte-identical to the day it executed.
//
// "sweeprun verify" is the forensic side: it flags recorded trials worth
// auditing (-flag undecided,violations,slowest=K,recheck), re-executes each
// flagged seed through the engine at full trace fidelity, validates the
// fresh columnar trace against the recorded decision digest and the formal
// model's legality constraints, and (with -bundle) writes per-trial trace
// bundles. Any failed audit exits non-zero.
//
// "sweeprun tail ADDR JOB" follows a sweepd job from the terminal: it
// connects to the daemon's GET /jobs/{id}/events stream and renders the
// job's structured event journal (job/segment/trial-batch spans, admit/
// retry/salvage/quarantine/... points) interleaved with its per-trial
// records as they become durable; -json passes the raw JSONL through
// instead. Tailing a finished job replays its persisted journal. The
// stream is read-only — tailing never perturbs the job's output.
//
// A run is observable while it executes and after it finishes. "run
// -progress" renders a live stderr line (trials/s, ETA, quarantine counts
// per segment); "-quiet" suppresses it and all informational output, and
// always wins when both are set. "run -telemetry-addr :9190" serves the
// metric registry as deterministic JSON at /metrics plus the standard Go
// profiler at /debug/pprof/ for the run's duration — a host-less address
// binds loopback only, because the profiler exposes memory contents. Every
// "-o" run also writes <out>.report.json (override with -report PATH,
// disable with -report none): the machine-readable run report — timing
// breakdown per segment, latency and decision-round histograms, seed
// schedule and calibration provenance, quarantine summary by cause.
// "sweeprun report FILE..." schema-validates such reports and prints
// one-line summaries; "sweeprun help exitcodes" prints the exit-code table
// below. Telemetry is strictly read-only with respect to the record stream:
// shard files are byte-identical with and without it.
//
// Exit codes are uniform across subcommands:
//
//	0  success
//	1  usage or configuration error
//	2  the sweep completed but quarantined per-trial errors (panic, deadline)
//	3  sink/IO failure — the stream aborted, leaving a valid resumable prefix
//	4  merge/verify/resume rejected its input files
//	5  clean interrupt — in-flight trials drained, tail flushed, resumable
//
// Examples:
//
//	sweeprun run -exp T3 -shard 0/2 -o shard0.jsonl
//	sweeprun run -exp T3 -shard 1/2 -o shard1.jsonl
//	sweeprun merge shard0.jsonl shard1.jsonl
//	sweeprun replay shard0.jsonl shard1.jsonl   # render, no simulation
//	sweeprun verify -flag violations,slowest=3 shard0.jsonl shard1.jsonl
//
//	sweeprun run -exp M1 -shard 0/4 -o m1-s0.jsonl   # bespoke pipelines shard too
//
//	sweeprun run -trials 10000 -shard 0/4 -alg bitbybit -values 3,7,7,1 \
//	    -loss prob -p 0.4 -seed 7 -o t0.jsonl   # ... one worker per shard
//	sweeprun merge t0.jsonl t1.jsonl t2.jsonl t3.jsonl
//
//	sweeprun run -resume -exp T3 -shard 0/2 -o shard0.jsonl   # after a crash
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/telemetry"
)

// Exit codes, documented in the command comment. The table and the
// classification live in internal/cli so sweeprun and sweepd cannot drift;
// these aliases keep this package's call sites short.
const (
	exitOK        = cli.ExitOK
	exitUsage     = cli.ExitUsage
	exitTrial     = cli.ExitTrial
	exitSink      = cli.ExitSink
	exitReject    = cli.ExitReject
	exitInterrupt = cli.ExitInterrupt
)

// withExit wraps err with an explicit exit code (nil stays nil).
func withExit(code int, err error) error { return cli.WithExit(code, err) }

// exitCodeOf classifies an error chain into the documented exit codes.
func exitCodeOf(err error) int { return cli.ExitCodeOf(err) }

// isInterrupt reports whether the error chain records a cooperative
// cancellation (the sweep drained and the stream holds a valid prefix).
func isInterrupt(err error) bool { return cli.IsInterrupt(err) }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		// First signal: cancel ctx, drain in-flight trials, flush, exit 5.
		// Once that is in motion, unregister — a second signal takes the
		// default disposition and kills the process immediately.
		<-ctx.Done()
		stop()
	}()
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweeprun:", err)
	}
	os.Exit(exitCodeOf(err))
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: sweeprun run|merge|replay|verify|report|tail|help [flags]")
	}
	switch args[0] {
	case "run":
		return runShard(ctx, args[1:], out)
	case "merge":
		return merge(args[1:], out)
	case "replay":
		return replayCmd(args[1:], out)
	case "verify":
		return verifyCmd(args[1:], out)
	case "report":
		return reportCmd(args[1:], out)
	case "tail":
		return tailCmd(ctx, args[1:], out)
	case "help":
		return helpCmd(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want run, merge, replay, verify, report, tail, or help)", args[0])
	}
}

// helpCmd is the "help" subcommand: topic help beyond -h flag listings.
func helpCmd(args []string, out io.Writer) error {
	if len(args) == 0 {
		fmt.Fprint(out, "usage: sweeprun run|merge|replay|verify|report|tail|help [flags]\n\n"+
			"help topics:\n  sweeprun help exitcodes   the uniform exit-code table\n"+
			"  sweeprun help events      the event journal and sweepd's streaming endpoints\n\n"+
			"per-subcommand flags: sweeprun <subcommand> -h\n")
		return nil
	}
	switch args[0] {
	case "exitcodes":
		fmt.Fprint(out, cli.ExitCodesHelp)
		return nil
	case "events":
		fmt.Fprint(out, eventsHelp)
		return nil
	default:
		return fmt.Errorf("unknown help topic %q (want exitcodes or events)", args[0])
	}
}

// eventsHelp documents the event journal's surfaces — shared vocabulary
// between "sweeprun run -events", "sweeprun tail", and sweepd's endpoints.
const eventsHelp = `The structured event journal (internal/events) records a run's narrative:
hierarchical spans (job -> segment -> trial-batch, as <scope>.begin/.end
pairs sharing a span id) and point events (job.admit, job.dedupe,
job.evict, job.retry, job.checkpoint, job.cancel, job.quarantine, drain,
salvage, torn_tail, quarantine with cause=panic|deadline|other,
sink.flush), each stamped with a monotonic sequence number. It is strictly
read-only: shard files are byte-identical with the journal on or off.

  sweeprun run -events -o FILE ...   also writes FILE.events.jsonl, the
                                     durable journal of the attempt that
                                     produced FILE (job id 0 standalone)

Against a sweepd daemon (which journals every job attempt the same way):

  sweeprun tail ADDR JOB             stream GET /jobs/{JOB}/events: journal
                                     events plus per-trial records, live;
                                     a finished job replays its persisted
                                     journal (-json for raw JSONL)
  GET /jobs/{id}/results             tables rendered from durable records
                                     via internal/replay (?quiet for
                                     PASS/FAIL lines) -- no re-simulation
  GET /jobs/{id}/flagged             quarantined/undecided/violation
                                     trials as JSON (?flag= selectors:
                                     quarantined, undecided, violations,
                                     slowest[=K])
  GET /metrics?name=PREFIX           one registry subtree (e.g. events.)
`

// reportCmd is the "report" subcommand: parse and schema-validate run
// reports (<out>.report.json) and print a one-line summary per file. An
// invalid report exits 4, an unreadable one 3 — so CI can gate on report
// integrity the way merge gates on shard integrity.
func reportCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweeprun report", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("report needs at least one run-report file (<out>.report.json)")
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return withExit(exitSink, err)
		}
		r, err := telemetry.ParseReport(data)
		if err != nil {
			return withExit(exitReject, fmt.Errorf("%s: %w", path, err))
		}
		fmt.Fprintf(out, "%s: %s status=%s trials %d planned / %d salvaged / %d executed / %d quarantined, %d segment(s), wall %s\n",
			path, r.Command, r.Status,
			r.Trials.Planned, r.Trials.Salvaged, r.Trials.Executed, r.Trials.Quarantined.Total,
			len(r.Segments), time.Duration(r.WallNs).Round(time.Millisecond))
	}
	return nil
}

// parseShard decodes "-shard i/k", strictly: trailing garbage (a typo like
// "1/2/3") must error rather than silently run the wrong partition.
func parseShard(s string) (shard, shards int, err error) {
	i, k, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/k, e.g. 0/2)", s)
	}
	if shard, err = strconv.Atoi(i); err == nil {
		shards, err = strconv.Atoi(k)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/k, e.g. 0/2)", s)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("bad -shard %q: shard must be in [0,%d)", s, shards)
	}
	return shard, shards, nil
}

// runShard is the "run" subcommand: execute one shard, stream JSONL,
// optionally resuming a partial shard file in place. The plan/salvage/stream
// machinery lives in internal/jobs — the same code path the sweepd daemon
// executes jobs through, which is what keeps a daemon job's output
// byte-identical to this command's.
func runShard(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweeprun run", flag.ContinueOnError)
	cf := cli.RegisterConfig(fs)
	var (
		expList  = fs.String("exp", "", "comma-separated experiments (T1..T9, A1..A3, M1) or 'all'")
		trials   = fs.Int("trials", 0, "instead of -exp: sweep this many trials of the flagged configuration")
		shardStr = fs.String("shard", "0/1", "shard to execute, as i/k")
		workers  = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		output   = fs.String("o", "", "output JSONL file (default stdout)")
		resume   = fs.Bool("resume", false, "salvage the -o file's valid record prefix, verify it against this invocation, and append only the remaining trials")
		timeout  = fs.Duration("trialtimeout", 0, "per-trial wall-clock budget; an overrunning trial is quarantined with a deadline error (0 = unbounded)")
		progress = fs.Bool("progress", false, "render a live progress line on stderr (trials/s, ETA, quarantine counts); -quiet overrides it off")
		quiet    = fs.Bool("quiet", false, "suppress informational output, including -progress (quiet always wins when both are set)")
		telAddr  = fs.String("telemetry-addr", "", "serve /metrics (JSON) and /debug/pprof/ on this address for the run's duration; a host-less address like :9190 binds loopback only")
		repPath  = fs.String("report", "", "write the machine-readable run report here; 'none' disables it (default: <out>.report.json when -o is set)")
		eventsOn = fs.Bool("events", false, "record the structured event journal; with -o it persists to <out>.events.jsonl (see 'sweeprun help events'); read-only — the shard file is byte-identical either way")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	shard, shards, err := parseShard(*shardStr)
	if err != nil {
		return err
	}
	if *trials < 0 {
		return fmt.Errorf("-trials %d must be positive", *trials)
	}
	if (*expList == "") == (*trials == 0) {
		return fmt.Errorf("pick exactly one of -exp or -trials")
	}
	if *resume && *output == "" {
		return fmt.Errorf("-resume needs -o (a shard file to salvage and append to)")
	}

	// Build the invocation's plan: one segment per experiment, in request
	// order, or the single configuration-sweep segment.
	var segs []jobs.Segment
	if *trials > 0 {
		seg, err := jobs.TrialsSegment(cf, *trials, shard, shards, *workers, *timeout)
		if err != nil {
			return err
		}
		segs = []jobs.Segment{seg}
	} else if segs, err = jobs.ExperimentSegments(strings.Split(*expList, ","), shard, shards, *workers, *timeout); err != nil {
		return err
	}

	// Resolve the run report's destination: explicit -report wins, 'none'
	// disables, and a -o run reports next to its shard file by default.
	reportPath := *repPath
	if reportPath == "" && *output != "" {
		reportPath = *output + ".report.json"
	}
	if reportPath == "none" {
		reportPath = ""
	}
	// Telemetry stays compiled-out (nil metric sets) unless something reads
	// it: the progress line, the run report, or the HTTP endpoint. Enabling
	// it never changes the record stream — the counters are observers.
	wantProgress := *progress && !*quiet
	if wantProgress || reportPath != "" || *telAddr != "" {
		telemetry.Enable()
	}
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "telemetry: /metrics and /debug/pprof/ on http://%s\n", srv.Addr())
		}
	}
	info := out
	if *quiet {
		info = io.Discard
	}

	// The journal brackets a standalone run as job 0: BeginJob before the
	// salvage path so resume events (salvage, torn_tail) land inside the job
	// span, EndJob with the run's status after the stream finishes. The
	// blocking export makes <out>.events.jsonl lossless.
	var jal *events.Journal
	var jspan uint64
	var exp *events.Export
	if *eventsOn {
		jal = events.New(events.Options{})
		events.Activate(jal)
		defer events.Activate(nil)
		if *output != "" {
			exp, err = events.StartExport(jal, *output+".events.jsonl", 0)
			if err != nil {
				return withExit(exitSink, err)
			}
			defer exp.Close()
		}
		jspan = jal.BeginJob(0)
	}

	w := out
	skips := make([]int, len(segs))
	if *output != "" {
		var f *os.File
		if *resume {
			f, err = jobs.Salvage(*output, segs, skips, info)
		} else {
			f, err = os.Create(*output)
			err = withExit(exitSink, err)
		}
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	total, salvaged := 0, 0
	for i, s := range segs {
		total += s.Length
		salvaged += skips[i]
	}
	track := newProgressTracker(total, salvaged)
	var prog *telemetry.Progress
	if wantProgress {
		if len(segs) > 0 {
			track.enter(segs[0].Name) // the immediate first render names it
		}
		prog = &telemetry.Progress{Out: os.Stderr, Snapshot: track.snapshot}
		prog.Start()
		defer prog.Stop()
	}

	// Per-trial errors (quarantined panics, deadline overruns) do not stop
	// the run: later segments still execute and the first error is reported
	// at the end with exit code 2. Everything else — sink failures,
	// interrupts — aborts, leaving the flushed valid prefix on disk. Either
	// way the run report records what actually happened.
	start := time.Now()
	oc := jobs.Stream(ctx, segs, skips, w, track.enter)
	if prog != nil {
		prog.Stop()
	}
	if reportPath != "" {
		rep := jobs.BuildReport("sweeprun run", jobs.StatusOf(oc.AbortErr, oc.TrialErr),
			time.Since(start), oc.Segments, oc.Causes)
		if werr := rep.WriteFile(reportPath); werr != nil {
			if oc.Err() == nil {
				return withExit(exitSink, fmt.Errorf("run report %s: %w", reportPath, werr))
			}
			fmt.Fprintf(info, "run report %s not written: %v\n", reportPath, werr)
		} else {
			fmt.Fprintf(info, "report: %s\n", reportPath)
		}
	}
	if jal != nil {
		jal.EndJob(jspan, jobs.StatusOf(oc.AbortErr, oc.TrialErr))
		if cerr := exp.Close(); cerr != nil && oc.Err() == nil {
			return withExit(exitSink, fmt.Errorf("event journal %s.events.jsonl: %w", *output, cerr))
		}
	}
	if oc.AbortErr != nil {
		if isInterrupt(oc.AbortErr) && *output != "" {
			fmt.Fprintf(out, "interrupted: %s holds a valid prefix — resume with: sweeprun run %s\n",
				*output, resumeCommand(args, *resume))
		}
		return oc.AbortErr
	}
	return oc.TrialErr
}

// progressTracker feeds the live progress line from the sink counters plus
// the resume accounting: durable = salvaged + records written since the run
// began. It only reads telemetry — the renderer cannot perturb the stream.
type progressTracker struct {
	total    int
	salvaged int
	recBase  uint64
	quarBase uint64

	mu          sync.Mutex
	segment     string
	segQuarBase uint64
}

func newProgressTracker(total, salvaged int) *progressTracker {
	sm := telemetry.SinkIO()
	return &progressTracker{
		total:    total,
		salvaged: salvaged,
		recBase:  sm.Records.Load(),
		quarBase: sm.Quarantined.Load(),
	}
}

// enter marks the segment now executing, re-basing its quarantine count.
func (t *progressTracker) enter(name string) {
	q := telemetry.SinkIO().Quarantined.Load() - t.quarBase
	t.mu.Lock()
	t.segment, t.segQuarBase = name, q
	t.mu.Unlock()
}

func (t *progressTracker) snapshot() telemetry.ProgressSnapshot {
	sm := telemetry.SinkIO()
	rec := sm.Records.Load() - t.recBase
	quar := sm.Quarantined.Load() - t.quarBase
	t.mu.Lock()
	seg, segBase := t.segment, t.segQuarBase
	t.mu.Unlock()
	return telemetry.ProgressSnapshot{
		Segment:            seg,
		SegmentQuarantined: int(quar - segBase),
		Done:               t.salvaged + int(rec),
		Total:              t.total,
		Quarantined:        int(quar),
	}
}

// resumeCommand renders the argument list that resumes this invocation.
func resumeCommand(args []string, alreadyResume bool) string {
	if alreadyResume {
		return strings.Join(args, " ")
	}
	return "-resume " + strings.Join(args, " ")
}

// shardFile is one input file's read outcome, kept for per-shard verdicts.
type shardFile struct {
	path string
	recs []sink.Record
	err  error
}

// readShardFiles reads every input file, continuing past failures so a bad
// shard set produces one verdict per file instead of stopping at the first.
func readShardFiles(paths []string) (files []shardFile, all []sink.Record, failed int) {
	for _, path := range paths {
		sf := shardFile{path: path}
		f, err := os.Open(path)
		if err != nil {
			sf.err = err
		} else {
			sf.recs, sf.err = sink.ReadRecords(f)
			f.Close()
		}
		if sf.err != nil {
			failed++
		} else {
			all = append(all, sf.recs...)
		}
		files = append(files, sf)
	}
	return files, all, failed
}

// printShardVerdicts writes one line per input file: OK with its record
// count, or the rejection reason. A non-empty exp restricts the count to
// the experiment group being diagnosed, so a multi-experiment shard file
// does not overstate what it contributes to the rejected group.
func printShardVerdicts(out io.Writer, files []shardFile, exp string, verdict func(sf shardFile) error) {
	for _, sf := range files {
		err := sf.err
		if err == nil && verdict != nil {
			err = verdict(sf)
		}
		if err != nil {
			fmt.Fprintf(out, "  shard %s: REJECTED: %v\n", sf.path, err)
			continue
		}
		n := len(sf.recs)
		if exp != "" {
			n = 0
			for _, rec := range sf.recs {
				if rec.Exp == exp {
					n++
				}
			}
		}
		fmt.Fprintf(out, "  shard %s: ok (%d records)\n", sf.path, n)
	}
}

// shardVerdict returns the per-file verdict for a rejected group: the
// per-record checks merge ran on the whole group (the plan's CheckGroup,
// with the plan merge derived from the same records), run on one file's
// records of it — which names the shards the fault lies in. A file
// carrying nothing for the group passes.
func shardVerdict(name string, group []sink.Record) func(sf shardFile) error {
	plan, err := replay.PlanOf(name, group)
	return func(sf shardFile) error {
		var recs []sink.Record
		for _, rec := range sf.recs {
			if rec.Exp == name {
				recs = append(recs, rec)
			}
		}
		if len(recs) == 0 {
			return nil
		}
		if err != nil {
			return err
		}
		return plan.CheckGroup(recs)
	}
}

// merge is the "merge" subcommand: fold shard files into tables and stats.
// A rejected shard set prints per-shard verdicts and exits non-zero.
func merge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweeprun merge", flag.ContinueOnError)
	quiet := fs.Bool("quiet", false, "per-experiment PASS/FAIL lines instead of full tables (CI use)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return mergeRender(fs.Args(), out, *quiet)
}

// replayCmd is the "replay" subcommand: render-without-rerun. It folds
// recorded results through the same verified path as merge — byte-identical
// tables, no simulation (the engine is never invoked on this path).
func replayCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweeprun replay", flag.ContinueOnError)
	quiet := fs.Bool("quiet", false, "per-experiment PASS/FAIL lines instead of full tables (CI use)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return mergeRender(fs.Args(), out, *quiet)
}

// mergeRender is the shared body of merge and replay. Unreadable inputs
// exit 3; a rejected or failing shard set exits 4.
func mergeRender(paths []string, out io.Writer, quiet bool) error {
	if len(paths) == 0 {
		return fmt.Errorf("need at least one shard file")
	}
	files, all, failedReads := readShardFiles(paths)
	if failedReads > 0 {
		printShardVerdicts(out, files, "", nil)
		return withExit(exitSink, fmt.Errorf("%d of %d shard file(s) unreadable", failedReads, len(files)))
	}
	run := replay.Group(all)
	if len(run.Order) == 0 {
		return withExit(exitReject, fmt.Errorf("no records in %d file(s)", len(files)))
	}
	failed := 0
	for _, name := range run.Order {
		pass, err := cli.RenderGroup(out, name, run.Groups[name], quiet)
		if err != nil {
			fmt.Fprintf(out, "%s: shard set rejected\n", name)
			printShardVerdicts(out, files, name, shardVerdict(name, run.Groups[name]))
			return withExit(exitReject, fmt.Errorf("%s: %w", name, err))
		}
		if !pass {
			failed++
		}
	}
	if failed > 0 {
		return withExit(exitReject, fmt.Errorf("%d experiment(s) failed their internal checks", failed))
	}
	return nil
}

// parseSelector decodes the -flag spec through the shared replay syntax,
// rejecting the one selector verify cannot honor: quarantined records
// carry no digest to re-execute (sweepd's flagged endpoint serves them).
func parseSelector(spec string) (replay.Selector, error) {
	sel, err := replay.ParseSelector(spec)
	if err != nil {
		return sel, err
	}
	if sel.Quarantined {
		return sel, fmt.Errorf("selector \"quarantined\" picks records without digests — nothing to verify; inspect them via sweepd's /jobs/{id}/flagged or 'sweeprun replay'")
	}
	return sel, nil
}

// verifyCmd is the "verify" subcommand: forensic re-execution of flagged
// recorded trials at full trace fidelity. Failed audits exit 4; unreadable
// inputs exit 3.
func verifyCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweeprun verify", flag.ContinueOnError)
	cf := cli.RegisterConfig(fs)
	var (
		flagSpec  = fs.String("flag", "undecided,violations,slowest=1", "trial selectors: undecided, violations, slowest[=K], recheck")
		bundleDir = fs.String("bundle", "", "write per-trial trace bundles into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("verify needs at least one shard file")
	}
	sel, err := parseSelector(*flagSpec)
	if err != nil {
		return err
	}
	if *bundleDir != "" {
		if err := os.MkdirAll(*bundleDir, 0o755); err != nil {
			return withExit(exitSink, err)
		}
	}
	run, err := replay.LoadFiles(fs.Args()...)
	if err != nil {
		return withExit(exitSink, err)
	}
	failedAudits := 0
	for _, name := range run.Order {
		group := run.Groups[name]
		switch {
		case name == "trials":
			n, err := verifyTrials(cf, group, sel, *bundleDir, out)
			if err != nil {
				return withExit(exitReject, fmt.Errorf("trials: %w", err))
			}
			failedAudits += n
		default:
			if _, isWork := experiments.WorkExperimentByName(name); isWork {
				// Work-item outcomes are not engine digests; their audit is
				// the render-side item verification (sweeprun replay).
				fmt.Fprintf(out, "%s: work-item pipeline, per-seed re-execution not applicable (render-verify via 'sweeprun replay')\n", name)
				continue
			}
			vs, err := replay.VerifyExperiment(name, group, sel, *bundleDir != "")
			if err != nil {
				return withExit(exitReject, fmt.Errorf("%s: %w", name, err))
			}
			failedAudits += reportVerifications(out, name, vs, *bundleDir)
		}
	}
	if failedAudits > 0 {
		return withExit(exitReject, fmt.Errorf("%d audit(s) failed", failedAudits))
	}
	return nil
}

// verifyTrials audits a configuration-sweep group through the public
// Config.ReplayFlagged API; the configuration flags must match the recorded
// run (fingerprint-checked).
func verifyTrials(cf *cli.ConfigFlags, recs []sink.Record, sel replay.Selector, bundleDir string, out io.Writer) (failed int, err error) {
	if sel.Recheck {
		return 0, fmt.Errorf("recheck is not supported for configuration sweeps; select trials with undecided/violations/slowest instead")
	}
	cfg, err := cf.Config()
	if err != nil {
		return 0, err
	}
	trs, err := cli.TrialResultsOf(recs)
	if err != nil {
		return 0, err
	}
	reports, err := cfg.ReplayFlagged(trs, adhocconsensus.ReplaySelector{
		Undecided:  sel.Undecided,
		Violations: sel.Violations,
		TopSlowest: sel.TopSlowest,
	})
	if err != nil {
		return 0, fmt.Errorf("%w (pass the run's configuration flags to verify a -trials sweep)", err)
	}
	fmt.Fprintf(out, "trials: %d trial(s) flagged of %d\n", len(reports), len(trs))
	for _, rep := range reports {
		status, ok := auditStatus(rep.OK(), rep.Mismatch, rep.TraceError)
		if !ok {
			failed++
		}
		fmt.Fprintf(out, "  trial %d seed %d [%s]: %s\n", rep.Trial, rep.Seed, strings.Join(rep.Reasons, ","), status)
		if bundleDir != "" {
			if bundle := rep.BundleText(); bundle != "" {
				path := filepath.Join(bundleDir, fmt.Sprintf("trials-%d.txt", rep.Trial))
				if err := os.WriteFile(path, []byte(bundle), 0o644); err != nil {
					return failed, err
				}
			}
		}
		if rep.Report != nil {
			rep.Report.Execution.Release()
		}
	}
	return failed, nil
}

// auditStatus renders one audit verdict line fragment — shared by the
// experiment and trials verify reports so the two outputs cannot drift.
func auditStatus(ok bool, mismatch, traceErr string) (status string, clean bool) {
	if ok {
		return "digest ok, trace legal", true
	}
	status = "AUDIT FAILED"
	if mismatch != "" {
		status += ": " + mismatch
	}
	if traceErr != "" {
		status += ": " + traceErr
	}
	return status, false
}

// reportVerifications prints one audit line per verification and writes
// bundles; it returns how many audits failed.
func reportVerifications(out io.Writer, name string, vs []*replay.Verification, bundleDir string) (failed int) {
	fmt.Fprintf(out, "%s: %d trial(s) flagged\n", name, len(vs))
	for _, v := range vs {
		status, ok := auditStatus(v.OK(), v.Mismatch, v.TraceError)
		if !ok {
			failed++
		}
		fmt.Fprintf(out, "  trial %d (%s) seed %d [%s]: %s\n", v.Index, v.Name, v.Seed, strings.Join(v.Reasons, ","), status)
		if bundleDir != "" && v.Bundle != "" {
			path := filepath.Join(bundleDir, fmt.Sprintf("%s-%d.txt", name, v.Index))
			if err := os.WriteFile(path, []byte(v.Bundle), 0o644); err != nil {
				fmt.Fprintf(out, "  bundle %s: %v\n", path, err)
				failed++
			}
		}
	}
	return failed
}
