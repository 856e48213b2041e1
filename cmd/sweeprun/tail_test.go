package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adhocconsensus/internal/cli"
)

func TestTailURL(t *testing.T) {
	cases := []struct{ addr, want string }{
		{":9190", "http://127.0.0.1:9190/jobs/3/events"},
		{"host:9190", "http://host:9190/jobs/3/events"},
		{"http://host:9190", "http://host:9190/jobs/3/events"},
		{"http://host:9190/", "http://host:9190/jobs/3/events"},
	}
	for _, c := range cases {
		if got := tailURL(c.addr, "3"); got != c.want {
			t.Errorf("tailURL(%q) = %q, want %q", c.addr, got, c.want)
		}
	}
}

const cannedStream = "event: journal\n" +
	"data: {\"seq\":1,\"t\":10,\"ev\":\"job.begin\",\"span\":1,\"job\":3}\n" +
	"\n" +
	"event: journal\n" +
	"data: {\"seq\":2,\"t\":11,\"ev\":\"quarantine\",\"job\":3,\"trial\":7,\"cause\":\"panic\"}\n" +
	"\n" +
	"event: record\n" +
	"data: {\"schema\":1,\"exp\":\"trials\",\"i\":0,\"seed\":42,\"rounds\":9,\"decided\":true}\n" +
	"\n" +
	"event: lagged\n" +
	"data: {\"dropped\":4}\n" +
	"\n" +
	"event: eof\n" +
	"data: {\"state\":\"done\"}\n" +
	"\n"

func TestTailStreamRendersFrames(t *testing.T) {
	var out bytes.Buffer
	if err := tailStream(strings.NewReader(cannedStream), &out, false); err != nil {
		t.Fatalf("tailStream: %v", err)
	}
	for _, want := range []string{
		"job.begin",
		"quarantine",
		"trial=7",
		"cause=panic",
		"record  trial=0 (trials) seed=42 rounds=9 decided=true",
		"lagged  4 journal event(s) dropped",
		"eof     job done",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("rendered stream missing %q:\n%s", want, out.String())
		}
	}
}

func TestTailStreamRawMode(t *testing.T) {
	var out bytes.Buffer
	if err := tailStream(strings.NewReader(cannedStream), &out, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "journal\t{\"seq\":1") ||
		!strings.Contains(out.String(), "eof\t{\"state\":\"done\"}") {
		t.Fatalf("raw mode output:\n%s", out.String())
	}
}

func TestTailStreamWithoutEOFIsAnError(t *testing.T) {
	var out bytes.Buffer
	err := tailStream(strings.NewReader("event: journal\ndata: {\"seq\":1,\"ev\":\"x\"}\n\n"), &out, false)
	if err == nil || cli.ExitCodeOf(err) != cli.ExitSink {
		t.Fatalf("truncated stream: err %v (exit %d), want sink-class failure", err, cli.ExitCodeOf(err))
	}
}

func TestTailCmdAgainstServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/jobs/3/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, cannedStream)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var out bytes.Buffer
	if err := tailCmd(context.Background(), []string{addr, "3"}, &out); err != nil {
		t.Fatalf("tail: %v", err)
	}
	if !strings.Contains(out.String(), "eof     job done") {
		t.Fatalf("tail output:\n%s", out.String())
	}

	// A missing job surfaces the daemon's status as a rejection.
	err := tailCmd(context.Background(), []string{addr, "999"}, &out)
	if err == nil || cli.ExitCodeOf(err) != cli.ExitReject {
		t.Fatalf("missing job: err %v, want reject-class failure", err)
	}
	if err := tailCmd(context.Background(), []string{addr, "not-a-number"}, &out); err == nil {
		t.Fatal("bad job id accepted")
	}
	if err := tailCmd(context.Background(), []string{addr}, &out); err == nil {
		t.Fatal("missing args accepted")
	}
}
