package adhocconsensus

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunTrialsContextCancellation: a canceled context stops the run with a
// classifiable error instead of aggregating a partial prefix.
func TestRunTrialsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Algorithm: AlgorithmBitByBit, Values: []Value{1, 2, 3}, Domain: 8, Seed: 7}
	_, err := cfg.RunTrialsContext(ctx, 50, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled on the chain", err)
	}
	if !strings.HasPrefix(err.Error(), "adhocconsensus: ") {
		t.Fatalf("public error lost its prefix: %v", err)
	}
}

// TestTrialTimeoutQuarantine: a configuration whose trials exceed the
// deadline streams quarantine results (Err set, digest zero) in their
// ordered slots and keeps the stream complete.
func TestTrialTimeoutQuarantine(t *testing.T) {
	// Bit-by-bit under total loss with ECF disabled never decides (nobody
	// hears anyone), so every trial runs its enormous horizon until the
	// watchdog stops it.
	cfg := Config{
		Algorithm:    AlgorithmBitByBit,
		Values:       []Value{1, 2, 3},
		Domain:       8,
		Loss:         LossDrop,
		ECFRound:     0,
		MaxRounds:    1 << 30,
		Seed:         3,
		TrialTimeout: 30 * time.Millisecond,
	}
	var got []TrialResult
	err := cfg.StreamTrials(3, 2, 0, 1, collectSink{&got})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err %v, want a deadline trial error", err)
	}
	if len(got) != 3 {
		t.Fatalf("stream delivered %d results, want all 3 (quarantined)", len(got))
	}
	for i, r := range got {
		if r.Trial != i {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
		if r.Err == "" || r.Rounds != 0 {
			t.Fatalf("trial %d not quarantined: %+v", i, r)
		}
		if r.Err != "sim: trial exceeded its 30ms deadline" {
			t.Fatalf("quarantine message %q not deterministic", r.Err)
		}
	}
}

// TestStreamTrialsContextPrefix: a sink that cancels the stream's context
// from Consume receives exactly the records up to that call, as a
// contiguous prefix.
func TestStreamTrialsContextPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Algorithm: AlgorithmBitByBit, Values: []Value{1, 2, 3}, Domain: 8, Seed: 7}
	var got []TrialResult
	err := cfg.StreamTrialsContext(ctx, 200, 2, 0, 1, cancelAfter{&got, 5, cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if len(got) != 5 {
		t.Fatalf("%d results delivered after cancel at 5, want exactly 5", len(got))
	}
	for i, r := range got {
		if r.Trial != i {
			t.Fatalf("canceled stream not a contiguous prefix at %d: %+v", i, r)
		}
	}
}

type cancelAfter struct {
	results *[]TrialResult
	k       int
	cancel  context.CancelFunc
}

func (s cancelAfter) Consume(r TrialResult) error {
	*s.results = append(*s.results, r)
	if len(*s.results) == s.k {
		s.cancel()
	}
	return nil
}
