package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/loss"
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

// denseTraceCase is one n=64 full-trace Alg 2 run of TestDenseTraceGolden
// and the sha256 of its Execution.WriteJSON.
type denseTraceCase struct {
	name string
	loss LossMode
	plan bool // a Plan-only adversary from BuildLoss instead of loss
	seed int64
	want string
}

// TestDenseTraceGolden pins whole dense executions, every view of every
// round, on the three ways the engine reads a loss row: the v1
// probabilistic and capture matrices, and a Plan-only adversary (a
// loss.Func over a v1 Probabilistic) that the engine asks per pair. The
// Plan-only runs draw the same losses as the matrix runs, so they pin the
// same bytes. With sixty-four distinct values a first-round receive set
// holds up to 52 distinct messages, past the compact multiset's 16; later
// rounds repeat one or two.
func TestDenseTraceGolden(t *testing.T) {
	for _, tc := range []denseTraceCase{
		{"prob/1", LossProbabilistic, false, 1, "1b37619453f1f7014f7583ba2a85cc0ea5e953e079f47dafddb32f5ceec7400e"},
		{"prob/2", LossProbabilistic, false, 2, "de4c43ae0a3e198f4e9393ffede52e470f75aead4452a4bcfcda9b67aa4c2508"},
		{"prob/3", LossProbabilistic, false, 3, "7598f93a2eba8e470e323a83993fdb8398f3d1fda444479864ad4afc251ca3a5"},
		{"capture/1", LossCapture, false, 1, "09119563d38a5e202209da67c783f703cf9fa4d0c3a30905f94b27d99d0876a8"},
		{"capture/2", LossCapture, false, 2, "df017f21b012abb6bc72c70dbd7756af3385584b8d82c512a7c8fce0bfa45d5a"},
		{"capture/3", LossCapture, false, 3, "d63a8e71d084e74f8c1b6ebe39bc1a6b49108b41085079c15adbc5b5553b4aea"},
		{"planonly/1", LossNone, true, 1, "1b37619453f1f7014f7583ba2a85cc0ea5e953e079f47dafddb32f5ceec7400e"},
		{"planonly/2", LossNone, true, 2, "de4c43ae0a3e198f4e9393ffede52e470f75aead4452a4bcfcda9b67aa4c2508"},
		{"planonly/3", LossNone, true, 3, "7598f93a2eba8e470e323a83993fdb8398f3d1fda444479864ad4afc251ca3a5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			values := make([]model.Value, 64)
			for i := range values {
				values[i] = model.Value((i*7919 + 1) % 65536)
			}
			s := Scenario{
				Algorithm:    AlgBitByBit,
				Values:       values,
				Domain:       65536,
				Race:         16,
				Stable:       16,
				ECFRound:     16,
				Loss:         tc.loss,
				LossP:        0.3,
				Trace:        engine.TraceFull,
				Seed:         tc.seed,
				SeedSchedule: 1,
			}
			if tc.plan {
				s.BuildLoss = func(s *Scenario) loss.Adversary {
					return loss.Func(loss.NewProbabilistic(s.LossP, s.Seed+4).Plan)
				}
			}
			r, res := RunTrialFull(0, s)
			if r.Err != nil || !r.AllDecided {
				t.Fatalf("trial: %+v", r)
			}
			defer res.Execution.Release()
			h := sha256.New()
			if err := res.Execution.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("the %d-round execution changed: sha256 %s, recorded %s", r.Rounds, got, tc.want)
			}
		})
	}
}
