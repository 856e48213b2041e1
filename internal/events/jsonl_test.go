package events

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestAppendParseRoundTrip(t *testing.T) {
	cases := []Event{
		{Seq: 1, TimeNs: 42, Type: "job.begin", Span: 3, Job: 7, Trial: NoTrial},
		{Seq: 2, TimeNs: 43, Type: TypeQuarantine, Parent: 4, Job: 7, Seg: "T3", Trial: 0, Cause: CausePanic},
		{Seq: 3, TimeNs: 44, Type: TypeSalvage, Trial: NoTrial, N: 128},
		{Seq: 4, TimeNs: 45, Type: TypeFlush, Trial: NoTrial, N: -1, Cause: "x\"y"},
	}
	var buf []byte
	for _, e := range cases {
		buf = AppendEvent(buf, e)
	}
	evs, err := ReadEvents(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(evs) != len(cases) {
		t.Fatalf("%d events decoded, want %d", len(evs), len(cases))
	}
	for i, e := range evs {
		if e != cases[i] {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, e, cases[i])
		}
	}
	// Trial 0 is a real index and must survive; an absent trial field must
	// decode to NoTrial, not 0.
	if evs[1].Trial != 0 {
		t.Errorf("trial 0 decoded to %d", evs[1].Trial)
	}
	if evs[0].Trial != NoTrial {
		t.Errorf("absent trial decoded to %d, want NoTrial", evs[0].Trial)
	}
	if _, err := ParseEvent([]byte(`{"seq":1}`)); err == nil {
		t.Error("ParseEvent accepted a line without an ev field")
	}
}

// seedEvents put control bytes, quotes, backslashes, multi-byte runes and
// an invalid byte in every string field, and an empty type in one event.
var seedEvents = []Event{
	{Seq: 1, TimeNs: 42, Type: "job.begin", Span: 3, Job: 7, Trial: NoTrial},
	{Seq: 2, TimeNs: 43, Type: TypeQuarantine, Parent: 4, Job: 7, Seg: "T3", Trial: 0, Cause: CausePanic},
	{Seq: 3, TimeNs: -1, Type: "a\x07b", Seg: "a\x07b", Trial: 5, N: -1, Cause: "\x00\x1f\x7f"},
	{Seq: 4, Type: "\xff", Span: 1, Parent: 2, Job: -3, Seg: "seg\xff", Trial: NoTrial, N: 9, Cause: "x\"y\\z\n\t"},
	{Seq: ^uint64(0), TimeNs: -1 << 63, Type: "ü\u2028日本", Parent: ^uint64(0), Job: 1, Seg: "\u00e9", Trial: 1 << 62, N: 1, Cause: "\r"},
	{Seq: 6, TimeNs: 7, Trial: NoTrial},
}

// FuzzAppendParseEvent checks that the line AppendEvent writes for any
// Event with a type is one terminated line that ParseEvent accepts, and
// that the round trip is exact when the string fields are valid UTF-8 (a
// JSON decoder reads an invalid byte as U+FFFD). The seed corpus is
// seedEvents.
func FuzzAppendParseEvent(f *testing.F) {
	for _, e := range seedEvents {
		f.Add(e.Seq, e.TimeNs, e.Type, e.Span, e.Parent, e.Job, e.Seg, e.Trial, e.N, e.Cause)
	}
	f.Fuzz(func(t *testing.T, seq uint64, ts int64, typ string, span, parent uint64, job int64, seg string, trial, n int64, cause string) {
		e := Event{Seq: seq, TimeNs: ts, Type: typ, Span: span, Parent: parent, Job: job, Seg: seg, Trial: trial, N: n, Cause: cause}
		line := AppendEvent(nil, e)
		if bytes.IndexByte(line, '\n') != len(line)-1 {
			t.Fatalf("AppendEvent(%+v) = %q, not one terminated line", e, line)
		}
		got, err := ParseEvent(line)
		if typ == "" {
			if err == nil {
				t.Fatalf("ParseEvent accepted %q, a line with an empty type", line)
			}
			return
		}
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", line, err)
		}
		if utf8.ValidString(typ) && utf8.ValidString(seg) && utf8.ValidString(cause) && got != e {
			t.Fatalf("%q round-tripped to %+v, want %+v", line, got, e)
		}
	})
}

// FuzzParseEvent feeds ParseEvent arbitrary bytes: it must not panic, and
// any line it accepts must re-encode through AppendEvent to a line it
// accepts as an equal Event. The seed corpus is the lines of
// FuzzAppendParseEvent's events, null, an empty type, a null trial and
// invalid UTF-8; tier-1 runs only the corpus.
func FuzzParseEvent(f *testing.F) {
	for _, e := range seedEvents {
		f.Add(AppendEvent(nil, e))
	}
	for _, line := range []string{
		`null`, `{"ev":""}`, `{"seq":1,"ev":"job.begin","trial":null}`,
		"{\"ev\":\"\xff\xfe\",\"seg\":\"a\xc3\"}", `{"ev":"x","EV":"y","trial":-1,"n":1e3}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := ParseEvent(line)
		if err != nil {
			return
		}
		again := AppendEvent(nil, e)
		got, err := ParseEvent(again)
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose line %q does not parse: %v", line, e, again, err)
		}
		if got != e {
			t.Fatalf("%q parsed to %+v, whose line %q parses to %+v", line, e, again, got)
		}
	})
}

// TestReadEventsNamesPhysicalLine: a bad line is named by its position in
// the stream, blank lines and earlier events counted.
func TestReadEventsNamesPhysicalLine(t *testing.T) {
	good := string(AppendEvent(nil, seedEvents[0]))
	for stream, want := range map[string]string{
		"\n\nnot json\n":           "line 3:",
		good + "\n" + good + "{\n": "line 4:",
		good + `{"seq":1}` + "\n":  "line 2:",
	} {
		evs, err := ReadEvents(strings.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one naming %s", stream, err, want)
		}
		if len(evs) != strings.Count(stream, good) {
			t.Errorf("%q: %d events before the bad line, want %d", stream, len(evs), strings.Count(stream, good))
		}
	}
}

func TestCountTypes(t *testing.T) {
	evs := []Event{
		{Type: TypeQuarantine}, {Type: TypeQuarantine}, {Type: TypeSalvage},
	}
	c := CountTypes(evs)
	if c[TypeQuarantine] != 2 || c[TypeSalvage] != 1 {
		t.Errorf("CountTypes = %v", c)
	}
}

func TestExportIsLosslessAndJobFiltered(t *testing.T) {
	j := New(Options{Capacity: 32, Clock: tickClock()}) // ring far smaller than the event count
	path := filepath.Join(t.TempDir(), "out.events.jsonl")
	exp, err := StartExport(j, path, 9)
	if err != nil {
		t.Fatalf("StartExport: %v", err)
	}
	span := j.BeginJob(9)
	const n = 5000
	for i := 0; i < n; i++ {
		j.Point(TypeQuarantine, int64(i), 0, CauseOther)
	}
	j.EndJob(span, "done")
	j.PointJob(TypeAdmit, 12, 0) // other job: must not be exported
	if err := exp.Close(); err != nil {
		t.Fatalf("export Close: %v", err)
	}
	evs, err := ReadEventsFile(path)
	if err != nil {
		t.Fatalf("ReadEventsFile: %v", err)
	}
	if len(evs) != n+2 {
		t.Fatalf("exported %d events, want %d — the blocking export must not lose events the ring evicted", len(evs), n+2)
	}
	for i, e := range evs {
		if e.Job != 9 {
			t.Fatalf("event %d exported with job %d, want 9 only", i, e.Job)
		}
		if i > 0 && e.Seq <= evs[i-1].Seq {
			t.Fatalf("export out of order at %d: seq %d after %d", i, e.Seq, evs[i-1].Seq)
		}
	}
	if c := CountTypes(evs); c[TypeQuarantine] != n {
		t.Errorf("%d quarantine events exported, want %d", c[TypeQuarantine], n)
	}
	// A second export to the same path truncates: per-attempt semantics.
	exp2, err := StartExport(j, path, 9)
	if err != nil {
		t.Fatalf("StartExport again: %v", err)
	}
	j.PointJob(TypeRetry, 9, 1)
	if err := exp2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	evs, err = ReadEventsFile(path)
	if err != nil {
		t.Fatalf("reread: %v", err)
	}
	if len(evs) != 1 || evs[0].Type != TypeRetry {
		t.Errorf("second attempt's file holds %d events (first %v), want just the retry", len(evs), evs)
	}

	var nilExp *Export
	if err := nilExp.Close(); err != nil {
		t.Errorf("nil export Close: %v", err)
	}
	if e, err := StartExport(nil, path, 1); e != nil || err != nil {
		t.Errorf("StartExport on nil journal: %v %v", e, err)
	}
}

func TestFormatStable(t *testing.T) {
	e := Event{Seq: 12, Type: TypeQuarantine, Job: 3, Seg: "T3", Trial: 7, N: 2, Cause: CauseDeadline, Parent: 5}
	got := e.Format()
	want := "    12  quarantine     job=3 seg=T3 trial=7 n=2 cause=deadline parent=5"
	if got != want {
		t.Errorf("Format:\n got %q\nwant %q", got, want)
	}
	if s := (Event{Seq: 1, Type: "job.begin", Trial: NoTrial, Span: 2}).Format(); strings.Contains(s, "trial=") {
		t.Errorf("NoTrial rendered a trial field: %q", s)
	}
}
