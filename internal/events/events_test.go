package events

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adhocconsensus/internal/telemetry"
)

// tickClock is a deterministic injectable clock: each reading advances one
// nanosecond from the epoch.
func tickClock() func() time.Time {
	var n atomic.Int64
	return func() time.Time { return time.Unix(0, n.Add(1)) }
}

func TestEmitSeqScopeAndClock(t *testing.T) {
	j := New(Options{Capacity: 64, Clock: tickClock()})
	jspan := j.BeginJob(7)
	sspan := j.BeginSegment("T3")
	j.Point(TypeQuarantine, 5, 0, CausePanic)
	j.EndSegment(sspan, 41, "")
	j.EndJob(jspan, "done")

	evs := j.Snapshot(0)
	if len(evs) != 5 {
		t.Fatalf("Snapshot: %d events, want 5", len(evs))
	}
	wantTypes := []string{"job.begin", "segment.begin", TypeQuarantine, "segment.end", "job.end"}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.TimeNs != int64(i+1) {
			t.Errorf("event %d: t %d, want the injected clock's %d", i, e.TimeNs, i+1)
		}
		if e.Type != wantTypes[i] {
			t.Errorf("event %d: type %q, want %q", i, e.Type, wantTypes[i])
		}
	}
	if evs[0].Job != 7 || evs[0].Span != jspan {
		t.Errorf("job.begin: job=%d span=%d, want job=7 span=%d", evs[0].Job, evs[0].Span, jspan)
	}
	if evs[1].Parent != jspan || evs[1].Job != 7 || evs[1].Seg != "T3" {
		t.Errorf("segment.begin: parent=%d job=%d seg=%q, want parent=%d job=7 seg=T3",
			evs[1].Parent, evs[1].Job, evs[1].Seg, jspan)
	}
	q := evs[2]
	if q.Job != 7 || q.Seg != "T3" || q.Parent != sspan || q.Trial != 5 || q.Cause != CausePanic {
		t.Errorf("quarantine point did not inherit scope: %+v", q)
	}
	if evs[3].Span != sspan || evs[3].N != 41 || evs[3].Parent != jspan {
		t.Errorf("segment.end: %+v", evs[3])
	}
	if evs[4].Span != jspan || evs[4].Cause != "done" {
		t.Errorf("job.end: %+v", evs[4])
	}
	if j.Seq() != 5 {
		t.Errorf("Seq() = %d, want 5", j.Seq())
	}
	// Scope cleared: a point after EndJob carries no job.
	j.Point(TypeDrain, NoTrial, 0, "")
	last := j.Snapshot(5)
	if len(last) != 1 || last[0].Job != 0 || last[0].Parent != 0 {
		t.Errorf("post-EndJob point should be scopeless: %+v", last)
	}
}

func TestBatchSpansNestInSegment(t *testing.T) {
	j := New(Options{Capacity: 64, Clock: tickClock()})
	if j.BatchEvery() != 256 {
		t.Fatalf("BatchEvery() = %d, want 256", j.BatchEvery())
	}
	j.BeginJob(1)
	sspan := j.BeginSegment("seg")
	b := j.BeginBatch(256)
	j.EndBatch(b, 256, 4)
	evs := j.Snapshot(2)
	if len(evs) != 2 {
		t.Fatalf("%d batch events, want 2", len(evs))
	}
	if evs[0].Type != "batch.begin" || evs[0].Parent != sspan || evs[0].Trial != 256 {
		t.Errorf("batch.begin: %+v", evs[0])
	}
	if evs[1].Type != "batch.end" || evs[1].Span != b || evs[1].N != 4 {
		t.Errorf("batch.end: %+v", evs[1])
	}
}

func TestRingEvictionAndSnapshotAfter(t *testing.T) {
	j := New(Options{Capacity: 8, Clock: tickClock()})
	for i := 0; i < 20; i++ {
		j.Point(TypeFlush, NoTrial, int64(i), "")
	}
	evs := j.Snapshot(0)
	if len(evs) != 8 {
		t.Fatalf("Snapshot after overflow: %d events, want ring capacity 8", len(evs))
	}
	for i, e := range evs {
		if want := uint64(13 + i); e.Seq != want {
			t.Errorf("survivor %d: seq %d, want %d (oldest evicted first)", i, e.Seq, want)
		}
	}
	tail := j.Snapshot(17)
	if len(tail) != 3 || tail[0].Seq != 18 {
		t.Errorf("Snapshot(17): %d events from seq %d, want 3 from 18", len(tail), tail[0].Seq)
	}
}

func TestDropPolicyCountsDrops(t *testing.T) {
	telemetry.Enable()
	base := telemetry.Events().Dropped.Load()
	j := New(Options{Capacity: 64, Clock: tickClock()})
	sub := j.Subscribe(2, false)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		j.Point(TypeFlush, NoTrial, int64(i), "")
	}
	if got := sub.Dropped(); got != 8 {
		t.Errorf("Dropped() = %d, want 8 (buffer 2 of 10)", got)
	}
	if d := telemetry.Events().Dropped.Load() - base; d != 8 {
		t.Errorf("telemetry events.dropped rose by %d, want 8", d)
	}
	// The two buffered events are the first two — drops discard the
	// newest-at-full, never reorder.
	e1, e2 := <-sub.C(), <-sub.C()
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Errorf("buffered seqs %d,%d, want 1,2", e1.Seq, e2.Seq)
	}
}

func TestBlockingSubscriptionIsLossless(t *testing.T) {
	j := New(Options{Capacity: 16, Clock: tickClock()})
	sub := j.Subscribe(1, true)
	var got []Event
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case e := <-sub.C():
				got = append(got, e)
			case <-sub.Done():
				for {
					select {
					case e := <-sub.C():
						got = append(got, e)
					default:
						return
					}
				}
			}
		}
	}()
	const emitters, each = 4, 250
	var ewg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		ewg.Add(1)
		go func() {
			defer ewg.Done()
			for i := 0; i < each; i++ {
				j.Point(TypeFlush, NoTrial, 1, "")
			}
		}()
	}
	ewg.Wait()
	sub.Close()
	wg.Wait()
	if len(got) != emitters*each {
		t.Fatalf("blocking subscription received %d of %d events", len(got), emitters*each)
	}
	seen := make(map[uint64]bool, len(got))
	for _, e := range got {
		if seen[e.Seq] {
			t.Fatalf("seq %d delivered twice", e.Seq)
		}
		seen[e.Seq] = true
	}
	if sub.Dropped() != 0 {
		t.Errorf("blocking subscription dropped %d", sub.Dropped())
	}
}

func TestFollowOverlapsNeverGaps(t *testing.T) {
	j := New(Options{Capacity: 64, Clock: tickClock()})
	for i := 0; i < 5; i++ {
		j.Point(TypeFlush, NoTrial, int64(i), "")
	}
	snap, sub := j.Follow(64)
	defer sub.Close()
	if len(snap) != 5 {
		t.Fatalf("Follow snapshot: %d events, want 5", len(snap))
	}
	for i := 0; i < 5; i++ {
		j.Point(TypeSalvage, NoTrial, int64(i), "")
	}
	lastSeq := snap[len(snap)-1].Seq
	seqs := make(map[uint64]bool)
	for _, e := range snap {
		seqs[e.Seq] = true
	}
	for len(seqs) < 10 {
		select {
		case e := <-sub.C():
			if e.Seq <= lastSeq {
				continue // the documented overlap; consumers dedupe by Seq
			}
			seqs[e.Seq] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("gap: only %d of 10 seqs arrived", len(seqs))
		}
	}
	for s := uint64(1); s <= 10; s++ {
		if !seqs[s] {
			t.Errorf("seq %d missing from snapshot+subscription union", s)
		}
	}
}

func TestNilJournalAndSubscriptionAreSafe(t *testing.T) {
	var j *Journal
	if j.Emit(Event{Type: TypeFlush}) != 0 || j.Seq() != 0 {
		t.Error("nil journal emitted")
	}
	j.Point(TypeFlush, NoTrial, 0, "")
	j.PointJob(TypeAdmit, 1, 0)
	j.EndJob(j.BeginJob(1), "done")
	j.EndSegment(j.BeginSegment("s"), 0, "")
	j.EndBatch(j.BeginBatch(0), 0, 0)
	if j.Snapshot(0) != nil || j.BatchEvery() < 1 {
		t.Error("nil journal snapshot/batch misbehaved")
	}
	snap, sub := j.Follow(1)
	if snap != nil || sub != nil {
		t.Error("nil journal Follow returned non-nil")
	}
	sub.Close()
	if sub.Dropped() != 0 || sub.C() != nil || sub.Done() != nil {
		t.Error("nil subscription misbehaved")
	}
	if Active() != nil {
		t.Fatal("journal active at package test start")
	}
}

func TestEmitIsSingleAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are noise under the race detector")
	}
	j := New(Options{Capacity: 256, Clock: func() time.Time { return time.Unix(0, 1) }})
	sub := j.Subscribe(4096, false)
	defer sub.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		j.Emit(Event{Type: TypeFlush, Trial: NoTrial})
	})
	// One heap allocation per Emit: the ring's published *Event. Fan-out to
	// a draining-free subscriber must not add any.
	if allocs > 1 {
		t.Errorf("Emit allocates %.1f per event, want <= 1", allocs)
	}
}
