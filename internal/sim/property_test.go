package sim

import (
	"testing"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
	"adhocconsensus/internal/valueset"
)

// TestGeneratedSystemsSatisfyTheModel is a property test over generated
// small systems, drawn from a fixed seed so tier-1 stays deterministic:
// n in 2..6, every algorithm under the detector class it tolerates, every
// loss mode, seed schedules v1 and v2, a CST (the detector's race, the
// contention manager's stabilization round and, when present, the ECF
// round), a detector false-positive rate, and an optional crash, all
// recorded with TraceFull. Every execution must satisfy the structural
// constraints of Definition 11 (Validate), its detector class
// (detector.CheckExecution), agreement, and strong validity. An Alg 1 or
// Alg 2 system with ECF from CST and no crash must also terminate within
// the bound T2 or T3 renders: Theorem 1's CST+2 or Theorem 2's
// CST+2(⌈lg|V|⌉+1), each plus one round of phase-alignment slack.
func TestGeneratedSystemsSatisfyTheModel(t *testing.T) {
	algs := []struct {
		alg   Algorithm
		class detector.Class
	}{
		{AlgPropose, detector.MajOAC},
		{AlgBitByBit, detector.ZeroOAC},
		{AlgTreeWalk, detector.ZeroAC},
		{AlgLeaderRelay, detector.ZeroOAC},
	}
	modes := []LossMode{LossNone, LossProbabilistic, LossCapture, LossDrop}
	rng := seedstream.NewV1(20)
	const systems = 400
	bounded := 0
	for i := 0; i < systems; i++ {
		a := algs[i%len(algs)]
		n := 2 + rng.Intn(5)
		domain := uint64(2 + rng.Intn(31))
		values := make([]model.Value, n)
		for j := range values {
			values[j] = model.Value(rng.Int63n(int64(domain)))
		}
		cst := 1 + rng.Intn(8)
		s := Scenario{
			Algorithm:         a.alg,
			Values:            values,
			Domain:            domain,
			Detector:          a.class,
			Race:              cst,
			FalsePositiveRate: []float64{0, 0.1, 0.4}[rng.Intn(3)],
			Stable:            cst,
			Loss:              modes[(i/len(algs))%len(modes)],
			LossP:             0.6 * rng.Float64(),
			ECFRound:          NoECF,
			MaxRounds:         150,
			Trace:             engine.TraceFull,
			Seed:              rng.Int63(),
			SeedSchedule:      seedstream.V1 + rng.Intn(2),
		}
		if rng.Intn(2) == 0 {
			s.ECFRound = cst
		}
		if rng.Intn(2) == 0 {
			s.Crashes = model.Schedule{
				model.ProcessID(1 + rng.Intn(n)): {Round: 1 + rng.Intn(2*cst+4), Time: model.CrashTime(1 + rng.Intn(2))},
			}
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("system %d (%+v): %v", i, s, err)
		}
		if !res.Execution.HasViews() {
			t.Fatalf("system %d (%+v): TraceFull run recorded no views", i, s)
		}
		for _, err := range []error{
			res.Execution.Validate(),
			detector.CheckExecution(a.class, cst, res.Execution),
			engine.CheckAgreement(res),
			engine.CheckStrongValidity(res),
		} {
			if err != nil {
				t.Fatalf("system %d (%+v): %v\n%s", i, s, err, res.Execution)
			}
		}
		if s.ECFRound != cst || s.Crashes != nil {
			continue
		}
		var bound int
		switch a.alg {
		case AlgPropose:
			bound = cst + 3
		case AlgBitByBit:
			bound = cst + 2*(valueset.MustDomain(domain).BitWidth()+1) + 1
		default:
			continue
		}
		bounded++
		for _, id := range res.Execution.Procs {
			if d, ok := res.Decisions[id]; !ok || d.Round > bound {
				t.Fatalf("system %d (%+v): process %d decided %+v (decided=%v), want by round %d\n%s",
					i, s, id, d, ok, bound, res.Execution)
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no generated system fell under a termination bound")
	}
	t.Logf("%d of %d systems checked against a termination bound", bounded, systems)
}
