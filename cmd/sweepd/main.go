// Command sweepd is the supervised sweep daemon: a long-running process
// that accepts sweep-shard jobs over a loopback HTTP API, executes them one
// at a time through the exact code path "sweeprun run" uses (internal/jobs),
// and supervises the lifecycle — bounded dedup admission queue, retry with
// backoff for transient sink failures, a per-job attempt budget that
// quarantines repeat offenders, panic containment, and checkpointed
// restarts: SIGTERM drains the running job to a durable resumable prefix
// and persists the queue manifest; the next start re-admits everything
// recoverable, and every finished job's output is byte-identical to an
// uninterrupted command-line run (the CI chaos soak SIGKILLs a daemon
// mid-job and proves it with cmp).
//
// The job API shares the telemetry listener: alongside /metrics (which
// accepts ?name= to fetch one registry subtree) and /debug/pprof/, -addr
// serves
//
//	POST /jobs                  submit a job spec (JSON, at most 1 MiB),
//	                            returns its status
//	GET  /jobs                  list every known job, admission order
//	GET  /jobs/{id}             one job's status document (telemetry
//	                            run-report schema rides along verbatim once
//	                            an attempt ran)
//	POST /jobs/{id}/cancel      cancel a queued or running job
//	GET  /jobs/{id}/events      SSE: the job's structured event journal
//	                            (spans and point events) plus its per-trial
//	                            records, streamed live as they become
//	                            durable; a finished job replays its
//	                            persisted journal ("sweeprun tail" is the
//	                            terminal client)
//	GET  /jobs/{id}/results     what "sweeprun replay" prints for the
//	                            durable records (cli.RenderGroup) — no
//	                            re-simulation
//	GET  /jobs/{id}/flagged     quarantined/undecided/violation trials
//	                            (?flag= selectors, JSON)
//	GET  /healthz               liveness + drain state
//
// Every job attempt also persists its event journal to <out>.events.jsonl
// next to the shard file and run report; -journal sizes the in-memory ring
// (0 disables journaling, and with it the journal half of /events). The
// journal is an observer: shard outputs are byte-identical with it on or
// off, watched or unwatched.
//
// A spec is the JSON shape of a "sweeprun run" invocation:
//
//	{"trials": 200000, "config": ["-alg","bitbybit","-loss","prob","-p","0.4"],
//	 "out": "/data/shard0.jsonl"}
//	{"exps": ["T3","T9"], "shard": 0, "shards": 2, "out": "/data/t3t9-s0.jsonl"}
//
// Security: like the telemetry endpoint, a host-less -addr (":9190") binds
// loopback ONLY, and there is no authentication — the API executes
// arbitrary sweep work and writes files as the daemon's user; anything
// beyond localhost needs transport security from the deployment.
//
// Exit codes follow the shared table ("sweeprun help exitcodes" or
// "sweepd -exitcodes"): 0 is a clean drain — every job finished or
// checkpointed resumable.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adhocconsensus/internal/backoff"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		// First signal: drain. Once that is in motion, unregister — a second
		// signal takes the default disposition and kills the process.
		<-ctx.Done()
		stop()
	}()
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
	}
	os.Exit(cli.ExitCodeOf(err))
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":9190", "serve the job API, /metrics, and /debug/pprof/ here; a host-less address binds loopback only")
		dir       = fs.String("dir", ".", "state directory for the recoverable queue manifest (jobs.manifest.json); queued and running jobs survive restarts through it")
		queueCap  = fs.Int("queue", 0, "admission-queue capacity; a full queue evicts its oldest queued job (0 = default 64)")
		attempts  = fs.Int("max-attempts", 0, "per-job attempt budget before transient failures quarantine it (0 = default 3)")
		base      = fs.Duration("backoff-base", 0, "first retry delay for transient job failures (0 = default 250ms)")
		capFlag   = fs.Duration("backoff-cap", 0, "retry delay ceiling (0 = default 5s)")
		jitter    = fs.Float64("jitter", 0, "deterministic backoff jitter fraction in [0,1), keyed per job fingerprint (0 = none)")
		drainWait = fs.Duration("drain-timeout", time.Minute, "how long a shutdown signal waits for the running job to checkpoint before giving up")
		quiet     = fs.Bool("quiet", false, "suppress informational output")
		table     = fs.Bool("exitcodes", false, "print the shared exit-code table and exit")
		journal   = fs.Int("journal", 8192, "event-journal ring capacity (rounded up to a power of two); 0 disables the journal and per-job .events.jsonl exports")
		sseBuf    = fs.Int("sse-buffer", 1024, "per-client journal buffer for /jobs/{id}/events; a client that falls further behind loses events (reported as 'lagged')")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *table {
		fmt.Fprint(out, cli.ExitCodesHelp)
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (sweepd takes flags only)", fs.Arg(0))
	}
	info := out
	if *quiet {
		info = io.Discard
	}
	if *journal > 0 {
		// Not one-way like telemetry.Enable: each daemon run (sequential
		// in-process test daemons included) installs a fresh journal and
		// removes it on exit, after which the streaming handlers degrade to
		// records-only.
		events.Activate(events.New(events.Options{Capacity: *journal}))
		defer events.Activate(nil)
	}

	sup, err := jobs.New(jobs.Options{
		QueueCap:    *queueCap,
		MaxAttempts: *attempts,
		Backoff:     backoff.Window{Base: *base, Cap: *capFlag, Jitter: *jitter},
		Dir:         *dir,
		Info:        info,
	})
	if err != nil {
		return cli.WithExit(cli.ExitReject, err)
	}
	srv, err := telemetry.ServeWith(*addr, func(mux *http.ServeMux) {
		registerJobAPI(mux, sup, *sseBuf)
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	sup.Start()
	fmt.Fprintf(info, "sweepd: job API, /metrics, and /debug/pprof/ on http://%s (manifest in %s)\n",
		srv.Addr(), *dir)

	<-ctx.Done()
	fmt.Fprintf(info, "sweepd: draining — checkpointing the running job, persisting the queue\n")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := sup.Drain(dctx); err != nil {
		return cli.WithExit(cli.ExitSink, fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintf(info, "sweepd: drained cleanly\n")
	return nil
}

// maxSpecBytes caps a POST /jobs body. A spec is a few hundred bytes, and
// a 4,096-value -values list is about 25 KB.
const maxSpecBytes = 1 << 20

// registerJobAPI mounts the job routes on the shared telemetry mux.
func registerJobAPI(mux *http.ServeMux, sup *jobs.Supervisor, sseBuf int) {
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("job spec exceeds %d bytes", maxSpecBytes))
				return
			}
			writeErr(w, http.StatusBadRequest, fmt.Errorf("reading job spec: %w", err))
			return
		}
		var spec jobs.Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
			return
		}
		st, err := sup.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, sup.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := jobID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		st, ok := sup.Job(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id, err := jobID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		st, err := sup.Cancel(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id, err := jobID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		handleEvents(w, r, sup, id, sseBuf)
	})
	mux.HandleFunc("GET /jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		id, err := jobID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		handleResults(w, r, sup, id)
	})
	mux.HandleFunc("GET /jobs/{id}/flagged", func(w http.ResponseWriter, r *http.Request) {
		id, err := jobID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		handleFlagged(w, r, sup, id)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "jobs": len(sup.Jobs())})
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
