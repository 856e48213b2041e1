package jobs_test

import (
	"bytes"
	"context"
	"io"
	"os"
	stdruntime "runtime"
	"testing"
	"time"

	"adhocconsensus/internal/backoff"
	"adhocconsensus/internal/chaos"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/jobs"
)

// withJournal activates a fresh journal for the test and deactivates it on
// cleanup — the package global must never leak between tests.
func withJournal(t *testing.T) *events.Journal {
	t.Helper()
	j := events.New(events.Options{})
	events.Activate(j)
	t.Cleanup(func() { events.Activate(nil) })
	return j
}

// TestSupervisedJobJournalReconcilesWithReport: the persisted event journal
// next to the shard file is the run report's narrative twin — span and point
// counts reconcile count-for-count with the report's counters, on a fresh
// run and on a resumed one that salvages a durable prefix and discards a
// torn tail.
func TestSupervisedJobJournalReconcilesWithReport(t *testing.T) {
	withJournal(t)
	dir := t.TempDir()
	spec := smallSpec(dir, "job.jsonl")

	s, err := jobs.New(jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, 10*time.Second)
	if final.State != jobs.StateDone || final.Report == nil {
		t.Fatalf("job finished %+v", final)
	}

	evs, err := events.ReadEventsFile(spec.Out + ".events.jsonl")
	if err != nil {
		t.Fatalf("persisted journal: %v", err)
	}
	c := events.CountTypes(evs)
	if c["job.begin"] != 1 || c["job.end"] != 1 {
		t.Fatalf("job span not bracketed exactly once: %v", c)
	}
	if c["segment.begin"] != len(final.Report.Segments) || c["segment.end"] != len(final.Report.Segments) {
		t.Errorf("%d/%d segment begin/end events, report has %d segments",
			c["segment.begin"], c["segment.end"], len(final.Report.Segments))
	}
	var executed, salvaged int64
	var quarantined int
	for _, e := range evs {
		switch e.Type {
		case "segment.end":
			executed += e.N
		case events.TypeSalvage:
			salvaged += e.N
		case events.TypeQuarantine:
			quarantined++
		case "job.end":
			if e.Cause != string(jobs.StateDone) {
				t.Errorf("job.end cause %q, want %q", e.Cause, jobs.StateDone)
			}
		}
		if e.Job != st.ID {
			t.Fatalf("event %+v exported for job %d's journal", e, st.ID)
		}
	}
	if int(executed) != final.Report.Trials.Executed {
		t.Errorf("segment.end events sum to %d executed, report says %d", executed, final.Report.Trials.Executed)
	}
	if int(salvaged) != final.Report.Trials.Salvaged || salvaged != 0 {
		t.Errorf("salvage events sum to %d, report says %d (fresh run: 0)", salvaged, final.Report.Trials.Salvaged)
	}
	if quarantined != final.Report.Trials.Quarantined.Total {
		t.Errorf("%d quarantine events, report says %d", quarantined, final.Report.Trials.Quarantined.Total)
	}
	if c[events.TypeAdmit] != 0 {
		// Admission precedes the attempt's export: the persisted file holds
		// the attempt's events only. The live stream carries the admit point.
		t.Errorf("admit event leaked into the per-attempt file: %v", c)
	}

	// Resume: tear the shard's tail, resubmit the identical spec. The new
	// attempt salvages every durable record and its journal says so.
	if err := appendBytes(spec.Out, []byte(`{"torn`)); err != nil {
		t.Fatal(err)
	}
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitState(t, s, st2.ID, 10*time.Second)
	if final2.State != jobs.StateDone || final2.Report == nil {
		t.Fatalf("resumed job finished %+v", final2)
	}
	evs2, err := events.ReadEventsFile(spec.Out + ".events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	c2 := events.CountTypes(evs2)
	if c2[events.TypeTornTail] != 1 {
		t.Errorf("torn tail not journaled: %v", c2)
	}
	var salvaged2 int64
	for _, e := range evs2 {
		if e.Type == events.TypeSalvage {
			salvaged2 += e.N
		}
		if e.Type == events.TypeTornTail && e.N <= 0 {
			t.Errorf("torn_tail event carries %d discarded bytes", e.N)
		}
	}
	if int(salvaged2) != final2.Report.Trials.Salvaged || salvaged2 != int64(final.Report.Trials.Executed) {
		t.Errorf("resume salvage events sum to %d, report says %d of %d durable",
			salvaged2, final2.Report.Trials.Salvaged, final.Report.Trials.Executed)
	}
}

// TestInterruptedStreamReportsWholePlan: a stream cut short still reports
// every segment of its plan, so trials.planned is the invocation's total.
// The segment the interrupt kept from starting carries its planned length
// and salvaged count, executes nothing, and opens no journal span.
func TestInterruptedStreamReportsWholePlan(t *testing.T) {
	j := withJournal(t)
	segs, err := jobs.ExperimentSegments([]string{"T1", "T3"}, 0, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	skips := []int{0, 3}
	out := jobs.Stream(ctx, segs, skips, io.Discard, nil)
	if out.AbortErr == nil {
		t.Fatal("a canceled stream did not abort")
	}
	rep := jobs.BuildReport("test", jobs.StatusOf(out.AbortErr, out.TrialErr), 0, out.Segments, out.Causes)
	if err := rep.Validate(); err != nil {
		t.Fatalf("interrupted report does not validate: %v", err)
	}
	planned := segs[0].Length + segs[1].Length
	if len(rep.Segments) != 2 || rep.Trials.Planned != planned || planned != 24 {
		t.Fatalf("report lists %d segments and %d planned, want 2 and %d (24)", len(rep.Segments), rep.Trials.Planned, planned)
	}
	if s := rep.Segments[1]; s.Name != "T3" || s.Planned != segs[1].Length || s.Salvaged != 3 || s.Executed != 0 || s.WallNs != 0 {
		t.Errorf("unstarted segment reported as %+v", s)
	}
	var begins, ends []events.Event
	for _, e := range j.Snapshot(0) {
		switch e.Type {
		case "segment.begin":
			begins = append(begins, e)
		case "segment.end":
			ends = append(ends, e)
		}
	}
	if len(begins) != 1 || begins[0].Seg != "T1" || len(ends) != 1 || ends[0].Span != begins[0].Span {
		t.Errorf("segment spans: begins %+v, ends %+v; want one T1 span", begins, ends)
	}
}

// TestRetriedJobJournalIsPerAttempt: the persisted journal truncates per
// attempt, exactly like the run report — after transient failures the file
// describes the final attempt (opening with its retry point), never a
// concatenation of attempts.
func TestRetriedJobJournalIsPerAttempt(t *testing.T) {
	withJournal(t)
	dir := t.TempDir()
	spec := smallSpec(dir, "retry.jsonl")
	s, err := jobs.New(jobs.Options{
		MaxAttempts: 5,
		Backoff:     backoff.Window{Base: time.Millisecond, Cap: 2 * time.Millisecond},
		Run:         chaos.FailAttempts(jobs.Execute, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, 10*time.Second)
	if final.State != jobs.StateDone || final.Attempts != 3 {
		t.Fatalf("job finished %+v, want done after 3 attempts", final)
	}
	evs, err := events.ReadEventsFile(spec.Out + ".events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	c := events.CountTypes(evs)
	if c[events.TypeRetry] != 1 || c["job.begin"] != 1 || c["job.end"] != 1 {
		t.Fatalf("final attempt's file holds %v, want exactly one retry point and one job span", c)
	}
	if evs[0].Type != events.TypeRetry || evs[0].N != 2 {
		t.Errorf("file opens with %+v, want the retry point with n=2 prior attempts", evs[0])
	}
}

// TestQuarantinedJobJournalsTheCause: a job that exhausts its budget lands a
// job.quarantine point and a job.end with the quarantined state — the
// journal names the outcome the status endpoint reports.
func TestQuarantinedJobJournalsTheCause(t *testing.T) {
	withJournal(t)
	dir := t.TempDir()
	spec := smallSpec(dir, "quar.jsonl")
	s, err := jobs.New(jobs.Options{MaxAttempts: 1, Run: chaos.PanicAttempts(jobs.Execute, 5)})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, 10*time.Second)
	if final.State != jobs.StateQuarantined {
		t.Fatalf("job finished %s, want quarantined", final.State)
	}
	evs, err := events.ReadEventsFile(spec.Out + ".events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	c := events.CountTypes(evs)
	if c[events.TypeJobQuarantine] != 1 {
		t.Fatalf("quarantined job's journal: %v, want a job.quarantine point", c)
	}
	last := evs[len(evs)-1]
	if last.Type != "job.end" || last.Cause != string(jobs.StateQuarantined) {
		t.Errorf("journal ends with %+v, want job.end cause=quarantined", last)
	}
}

// TestExecuteByteIdenticalWithJournalLive is the journal's read-only proof:
// shard bytes are identical with the journal off, and with it on under a
// live subscriber, at 1, 4, and GOMAXPROCS workers.
func TestExecuteByteIdenticalWithJournalLive(t *testing.T) {
	dir := t.TempDir()
	ref := smallSpec(dir, "ref.jsonl")
	if events.Active() != nil {
		t.Fatal("journal active at test start")
	}
	if _, err := jobs.Execute(context.Background(), ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.Out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, stdruntime.GOMAXPROCS(0)} {
		j := withJournal(t)
		sub := j.Subscribe(8, false) // deliberately small: exercise the drop path too
		spec := smallSpec(dir, "w.jsonl")
		spec.Workers = w
		if err := os.Remove(spec.Out); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if _, err := jobs.Execute(context.Background(), spec, io.Discard); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(spec.Out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: shard bytes differ with the journal live — the journal is not read-only", w)
		}
		if j.Seq() == 0 {
			t.Fatalf("workers=%d: journal saw no events during the run", w)
		}
		sub.Close()
		events.Activate(nil)
	}
}

func appendBytes(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
