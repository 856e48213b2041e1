package sim

import (
	"errors"
	"slices"
	"testing"
	"time"

	"adhocconsensus/internal/events"
	"adhocconsensus/internal/model"
)

// activateJournal installs a fresh journal for the test and removes it on
// cleanup.
func activateJournal(t *testing.T, opts events.Options) *events.Journal {
	t.Helper()
	j := events.New(opts)
	events.Activate(j)
	t.Cleanup(func() { events.Activate(nil) })
	return j
}

// TestSweepEmitsBatchSpansAndQuarantinePoints: the runner journals trial
// progress as batch spans of BatchEvery() (256) delivered trials — never
// per round — and each quarantined trial as one point naming its cause,
// reconciling with the quarantine counters.
func TestSweepEmitsBatchSpansAndQuarantinePoints(t *testing.T) {
	j := activateJournal(t, events.Options{Clock: func() time.Time { return time.Unix(0, 1) }})
	const bombed = 3
	grid := quarantineGridN(600, bombed)
	if _, err := (Runner{Workers: 4}).Sweep(grid); err == nil {
		t.Fatal("bombed grid returned no TrialError")
	}
	evs := j.Snapshot(0)
	c := events.CountTypes(evs)
	// 600 trials in batches of 256: exactly 3 begin/end pairs, each end
	// carrying its delivered count.
	if c["batch.begin"] != 3 || c["batch.end"] != 3 {
		t.Fatalf("batch spans %v, want 3 begin/end pairs for 600 trials at BatchEvery()=%d", c, j.BatchEvery())
	}
	var spans []int64
	var quarantine []events.Event
	for _, e := range evs {
		switch e.Type {
		case "batch.end":
			spans = append(spans, e.N)
		case events.TypeQuarantine:
			quarantine = append(quarantine, e)
		}
	}
	if want := []int64{256, 256, 88}; !slices.Equal(spans, want) {
		t.Errorf("batch.end events carry %v trials, want %v", spans, want)
	}
	if len(quarantine) != 1 {
		t.Fatalf("%d quarantine points, want 1", len(quarantine))
	}
	if q := quarantine[0]; q.Trial != bombed || q.Cause != events.CausePanic {
		t.Errorf("quarantine point %+v, want trial=%d cause=%s", q, bombed, events.CausePanic)
	}
}

// TestSweepDeadlineQuarantineCause: a deadline overrun journals with the
// deadline cause — the same classification the telemetry counter uses.
func TestSweepDeadlineQuarantineCause(t *testing.T) {
	j := activateJournal(t, events.Options{})
	s := quarantineGrid(-1)[0]
	s.MaxRounds = 1 << 30
	s.BuildProc = func(int, *Scenario) model.Automaton { return spinProc{} }
	r := Runner{Workers: 1, TrialTimeout: 10 * time.Millisecond}
	if _, err := r.Sweep([]Scenario{s}); err == nil {
		t.Fatal("spin trial did not overrun its deadline")
	}
	var found bool
	for _, e := range j.Snapshot(0) {
		if e.Type == events.TypeQuarantine {
			found = true
			if e.Cause != events.CauseDeadline {
				t.Errorf("deadline quarantine journaled cause %q", e.Cause)
			}
		}
	}
	if !found {
		t.Fatal("no quarantine point journaled for the overrun")
	}
}

// refuseAt is a sink that refuses the record at one index and counts the
// quarantine records it accepted.
type refuseAt struct {
	at          int
	quarantined int
}

func (s *refuseAt) Consume(r Result) error {
	if r.Index == s.at {
		return errors.New("refused")
	}
	if r.Err != nil {
		s.quarantined++
	}
	return nil
}

// TestRefusedQuarantineIsNotJournaled: a quarantine is journaled (and
// counted by cause) when the sink accepts its record, so a quarantined
// record the sink refuses leaves no point behind and the journal agrees
// with what the sink holds.
func TestRefusedQuarantineIsNotJournaled(t *testing.T) {
	j := activateJournal(t, events.Options{})
	s := &refuseAt{at: 2}
	var se *SinkError
	if err := (Runner{Workers: 1}).SweepTo(quarantineGrid(2), s); !errors.As(err, &se) {
		t.Fatalf("SweepTo = %v, want a *SinkError", err)
	}
	if points := events.CountTypes(j.Snapshot(0))[events.TypeQuarantine]; points != s.quarantined {
		t.Fatalf("%d quarantine points journaled, sink accepted %d quarantined records", points, s.quarantined)
	}
}
