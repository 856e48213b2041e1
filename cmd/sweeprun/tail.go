package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/sink"
)

// tailCmd is the "tail" subcommand: the terminal client of sweepd's
// GET /jobs/{id}/events stream. It renders journal events through the
// shared events.Event.Format and per-trial records as one-line summaries;
// -json passes the raw JSONL data through instead. The command returns when
// the daemon closes the stream with its eof event (the job is terminal) or
// the user interrupts — an interrupt mid-tail is a clean exit, the stream
// is read-only.
func tailCmd(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweeprun tail", flag.ContinueOnError)
	raw := fs.Bool("json", false, "print raw SSE frames (TYPE<TAB>JSONL) instead of the human rendering")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: sweeprun tail [-json] <addr> <job-id> (addr as host:port or :port)")
	}
	addr, idStr := fs.Arg(0), fs.Arg(1)
	if _, err := strconv.ParseInt(idStr, 10, 64); err != nil {
		return fmt.Errorf("bad job id %q", idStr)
	}
	url := tailURL(addr, idStr)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return cli.WithExit(cli.ExitSink, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return cli.WithExit(cli.ExitReject, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body))))
	}
	err = tailStream(resp.Body, out, *raw)
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// tailURL resolves the user-facing address forms (":9190", "host:9190",
// "http://host:9190") to the job's event-stream URL.
func tailURL(addr, id string) string {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/") + "/jobs/" + id + "/events"
}

// tailStream decodes the SSE framing — "event:" type lines, single-line
// "data:" payloads, blank-line dispatch — until eof or stream end. A stream
// that ends without the daemon's eof event (daemon killed, connection cut)
// is reported as a sink-layer failure.
func tailStream(r io.Reader, out io.Writer, raw bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var typ, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if typ != "" {
				done := renderFrame(out, typ, data, raw)
				if done {
					return nil
				}
			}
			typ, data = "", ""
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		return cli.WithExit(cli.ExitSink, err)
	}
	return cli.WithExit(cli.ExitSink, fmt.Errorf("event stream ended without eof — daemon gone?"))
}

// renderFrame prints one SSE frame and reports whether it closed the
// stream.
func renderFrame(out io.Writer, typ, data string, raw bool) (done bool) {
	if raw {
		fmt.Fprintf(out, "%s\t%s\n", typ, data)
		return typ == "eof"
	}
	switch typ {
	case "journal":
		e, err := events.ParseEvent([]byte(data))
		if err != nil {
			fmt.Fprintf(out, "journal? %s\n", data)
			return false
		}
		fmt.Fprintln(out, e.Format())
	case "record":
		var rec sink.Record
		if err := json.Unmarshal([]byte(data), &rec); err != nil {
			fmt.Fprintf(out, "record? %s\n", data)
			return false
		}
		status := fmt.Sprintf("rounds=%d decided=%t", rec.Rounds, rec.AllDecided)
		if rec.Err != "" {
			status = "err=" + strconv.Quote(rec.Err)
		}
		fmt.Fprintf(out, "record  trial=%d (%s) seed=%d %s\n", rec.Index, rec.Exp, rec.Seed, status)
	case "lagged":
		var l struct {
			Dropped uint64 `json:"dropped"`
		}
		_ = json.Unmarshal([]byte(data), &l)
		fmt.Fprintf(out, "lagged  %d journal event(s) dropped (slow consumer)\n", l.Dropped)
	case "eof":
		var e struct {
			State string `json:"state"`
		}
		_ = json.Unmarshal([]byte(data), &e)
		fmt.Fprintf(out, "eof     job %s\n", e.State)
		return true
	default:
		fmt.Fprintf(out, "%s\t%s\n", typ, data)
	}
	return false
}
