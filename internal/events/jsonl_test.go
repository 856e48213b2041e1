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

// FuzzAppendParseEvent checks that the line AppendEvent writes for any
// Event with a type is one terminated line that ParseEvent accepts, and
// that the round trip is exact when the string fields are valid UTF-8 (a
// JSON decoder reads an invalid byte as U+FFFD). The seed corpus puts
// control bytes, quotes, backslashes, multi-byte runes and an invalid byte
// in every string field.
func FuzzAppendParseEvent(f *testing.F) {
	f.Add(uint64(1), int64(42), "job.begin", uint64(3), uint64(0), int64(7), "", NoTrial, int64(0), "")
	f.Add(uint64(2), int64(43), TypeQuarantine, uint64(0), uint64(4), int64(7), "T3", int64(0), int64(0), CausePanic)
	f.Add(uint64(3), int64(-1), "a\x07b", uint64(0), uint64(0), int64(0), "a\x07b", int64(5), int64(-1), "\x00\x1f\x7f")
	f.Add(uint64(4), int64(0), "\xff", uint64(1), uint64(2), int64(-3), "seg\xff", NoTrial, int64(9), "x\"y\\z\n\t")
	f.Add(^uint64(0), int64(-1)<<63, "ü\u2028日本", uint64(0), ^uint64(0), int64(1), "\u00e9", int64(1)<<62, int64(1), "\r")
	f.Add(uint64(6), int64(7), "", uint64(0), uint64(0), int64(0), "", NoTrial, int64(0), "")
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
