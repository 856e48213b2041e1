package jobs

import (
	"bytes"
	"strings"
	"testing"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// TestTrialsStreamWritesOnlyPlannedRecords: the sweep stream writes a fresh
// result only once the segment's plan accepts it. A result whose
// fingerprint the recorded params do not derive aborts the stream with the
// reject code, and its record is never written.
func TestTrialsStreamWritesOnlyPlannedRecords(t *testing.T) {
	params := sink.Params{Algorithm: "propose", N: 4, Trace: "decisions", SweepSeed: 7}
	var buf bytes.Buffer
	j := sink.NewJSONL(&buf)
	j.Exp = "trials"
	s := &jsonlTrials{j: j, params: params, plan: replay.SweepPlan(params)}
	for i := 0; i < 2; i++ {
		if err := s.Consume(adhocconsensus.TrialResult{Trial: i, Seed: sim.TrialSeed(7, 0, i), Fingerprint: params.Fingerprint()}); err != nil {
			t.Fatalf("planned trial %d rejected: %v", i, err)
		}
	}
	err := s.Consume(adhocconsensus.TrialResult{Trial: 2, Seed: sim.TrialSeed(7, 0, 2), Fingerprint: "deadbeef"})
	if cli.ExitCodeOf(err) != cli.ExitReject || !strings.Contains(err.Error(), "fingerprint deadbeef") {
		t.Fatalf("foreign fingerprint: %v (exit %d), want a reject naming it", err, cli.ExitCodeOf(err))
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := sink.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("stream wrote %d records, want the 2 the plan accepted", len(recs))
	}
}
