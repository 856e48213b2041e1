package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/valueset"
)

// crashGrid is a fixed grid of crash scenarios, the paths a `-trials`
// shard never reaches because it cannot crash a process:
//   - Alg 3 under T4's deep-left crash (the minimum-value process leads the
//     walk to its leaf and dies there, so the survivors climb back), with
//     the crash round swept around T4's 4·Height−3, both crash times, and
//     drop and capture loss;
//   - LeaderRelay in the election regime (|V| > |I|) with the first
//     elected leader crashing as in TestNonAnonLeaderCrashRecovery, and
//     with random IDs, probabilistic loss and a crash at a swept round;
//   - LeaderRelay in the plain regime, Alg 1 and Alg 2 with one or two
//     crashes under probabilistic loss.
func crashGrid() []Scenario {
	var scs []Scenario
	add := func(s Scenario) {
		s.Name = fmt.Sprintf("crash/%d", len(scs))
		s.Seed = TrialSeed(29, len(scs), 0)
		s.Trace = engine.TraceDecisionsOnly
		s.MaxRounds = 3000
		scs = append(scs, s)
	}
	times := []model.CrashTime{model.CrashBeforeSend, model.CrashAfterSend}
	for _, size := range []uint64{16, 256, 1 << 16} {
		h := valueset.MustDomain(size).Height()
		for r := 1; r <= 4*h+4; r += 2 {
			for _, when := range times {
				for _, lm := range []LossMode{LossDrop, LossCapture} {
					add(Scenario{
						Algorithm: AlgTreeWalk,
						Detector:  detector.ZeroAC,
						Values:    []model.Value{0, model.Value(size - 2), model.Value(size - 1)},
						Domain:    size,
						Loss:      lm,
						LossP:     0.3,
						Crashes:   model.Schedule{1: {Round: r, Time: when}},
					})
				}
			}
		}
	}
	for r := 8; r <= 40; r++ {
		for _, when := range times {
			add(Scenario{
				Algorithm: AlgLeaderRelay,
				Detector:  detector.ZeroOAC,
				Values:    []model.Value{1000, 2000, 3000},
				Domain:    1 << 16,
				IDs:       []model.Value{1, 4, 6},
				IDSpace:   8,
				CM:        CMWakeUp,
				Crashes:   model.Schedule{1: {Round: r, Time: when}},
			})
			add(Scenario{
				Algorithm: AlgLeaderRelay,
				Values:    []model.Value{1, 9000, 30000, 65535},
				Domain:    1 << 16,
				IDSpace:   16,
				Race:      6,
				Stable:    6,
				ECFRound:  6,
				Loss:      LossProbabilistic,
				LossP:     0.3,
				Crashes:   model.Schedule{model.ProcessID(1 + r%4): {Round: r, Time: when}},
			})
		}
	}
	for r := 1; r <= 24; r++ {
		for _, alg := range []Algorithm{AlgPropose, AlgBitByBit, AlgLeaderRelay} {
			crashes := model.Schedule{model.ProcessID(1 + r%4): {Round: r, Time: times[r%2]}}
			if r%3 == 0 {
				crashes[model.ProcessID(1+(r+1)%4)] = model.Crash{Round: r + 2, Time: model.CrashBeforeSend}
			}
			add(Scenario{
				Algorithm: alg,
				Values:    []model.Value{3, 7, 7, 1},
				Race:      1 + r%6,
				Stable:    1 + r%6,
				ECFRound:  1 + r%6,
				Loss:      LossProbabilistic,
				LossP:     0.3,
				Crashes:   crashes,
			})
		}
	}
	return scs
}

// TestCrashDigestGolden pins the Results of crashGrid by a sha256 over
// every field, recorded before the automata became flat values. The sweep
// runs on GOMAXPROCS workers, so `-cpu 1,4` checks it on one worker that
// reuses its trial state and on four that interleave.
func TestCrashDigestGolden(t *testing.T) {
	scs := crashGrid()
	results, err := Runner{}.Sweep(scs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("trial %d (%s): %v", r.Index, r.Name, r.Err)
		}
		fmt.Fprintf(h, "%d %s %d rounds=%d all=%t n=%d values=%v last=%d ok=%t/%t/%t\n",
			r.Index, r.Name, r.Seed, r.Rounds, r.AllDecided, r.Decisions, r.DecidedValues,
			r.LastDecisionRound, r.AgreementOK, r.ValidityOK, r.TerminationOK)
	}
	const want = "3a7cda43f3c0ac7a82ffd9952f3bfdd6406c0633b2f353e587aa9b9c3646e47f"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("the Results of %d crash trials changed: sha256 %s, recorded %s", len(scs), got, want)
	}
}
