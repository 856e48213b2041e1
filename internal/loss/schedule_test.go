package loss

import (
	"math"
	"slices"
	"sync"
	"testing"

	"adhocconsensus/internal/model"
)

// ids builds the contiguous process set 1..n.
func ids(n int) []model.ProcessID {
	out := make([]model.ProcessID, n)
	for i := range out {
		out[i] = model.ProcessID(i + 1)
	}
	return out
}

// planMatrix renders a plan as a delivery matrix over (procs × senders).
func planMatrix(fn DeliveryFunc, procs, senders []model.ProcessID) string {
	s := ""
	for _, rcv := range procs {
		for _, snd := range senders {
			if fn(rcv, snd) {
				s += "1"
			} else {
				s += "0"
			}
		}
		s += "\n"
	}
	return s
}

// rowsMatrix renders a PlanRows loss matrix like planMatrix renders a
// plan: 1 where procs[i] hears senders[j]. A nil matrix loses nothing.
func rowsMatrix(lost []bool, procs, senders []model.ProcessID) string {
	s := ""
	for i := range procs {
		for j := range senders {
			if lost == nil || !lost[i*len(senders)+j] {
				s += "1"
			} else {
				s += "0"
			}
		}
		s += "\n"
	}
	return s
}

// TestV2PlanOrderFree is the tentpole property: filling the v2 plan in
// shards — any shard partition, any order — produces the exact plan the
// inline fill produces, for both adversaries.
func TestV2PlanOrderFree(t *testing.T) {
	procs := ids(31)
	senders := []model.ProcessID{3, 7, 8, 20, 31}
	for _, tc := range []struct {
		name string
		mk   func() ConcurrentPlanner
	}{
		{"probabilistic", func() ConcurrentPlanner { return NewProbabilisticV2(0.4, 99) }},
		{"capture", func() ConcurrentPlanner { return NewCaptureV2(0.3, 0.1, 99) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inline := tc.mk()
			want := planMatrix(inline.Plan(5, senders, procs), procs, senders)
			for _, shards := range [][]int{
				{31},             // one shard
				{1, 30},          // lopsided
				{10, 11, 10},     // even-ish
				{5, 5, 5, 5, 11}, // many
			} {
				a := tc.mk()
				fill, lost := a.PlanRows(5, senders, procs)
				if fill == nil {
					t.Fatal("v2 PlanRows returned nil fill")
				}
				// Fill shards back to front: the plan must not depend on order.
				bounds := [][2]int{}
				lo := 0
				for _, w := range shards {
					bounds = append(bounds, [2]int{lo, lo + w})
					lo += w
				}
				for i := len(bounds) - 1; i >= 0; i-- {
					fill(bounds[i][0], bounds[i][1])
				}
				if got := rowsMatrix(lost, procs, senders); got != want {
					t.Fatalf("shards %v: plan differs from inline fill:\n%s\nwant:\n%s", shards, got, want)
				}
			}
		})
	}
}

// TestV2RoundsAndReceiversIndependent checks the keying: the same receiver
// draws differently across rounds, and different receivers draw differently
// within a round (no accidental stream aliasing).
func TestV2RoundsAndReceiversIndependent(t *testing.T) {
	procs := ids(16)
	a := NewProbabilisticV2(0.5, 7)
	r5 := planMatrix(a.Plan(5, procs, procs), procs, procs)
	r6 := planMatrix(a.Plan(6, procs, procs), procs, procs)
	if r5 == r6 {
		t.Fatal("round 5 and round 6 drew identical plans")
	}
}

// TestDenseIndexMatchesBinarySearch runs the same draws through a
// contiguous process set (dense index on) and a non-contiguous one (binary
// search fallback) and checks both paths answer foreign-ID and non-sender
// queries identically to the documented semantics.
func TestDenseIndexMatchesBinarySearch(t *testing.T) {
	sparse := []model.ProcessID{1, 2, 4, 8} // gap: fallback path
	dense := ids(4)                         // contiguous: dense path
	for _, procs := range [][]model.ProcessID{dense, sparse} {
		senders := procs[:2]
		a := NewProbabilistic(0.0, 1) // p=0: every known pair delivers
		fn := a.Plan(1, senders, procs)
		for _, rcv := range procs {
			for _, snd := range senders {
				if !fn(rcv, snd) {
					t.Fatalf("procs=%v: (%d<-%d) lost under p=0", procs, rcv, snd)
				}
			}
		}
		// Foreign receiver and non-sender queries deliver (documented
		// Probabilistic semantics), on both index paths.
		if !fn(model.ProcessID(100), senders[0]) {
			t.Fatalf("procs=%v: foreign receiver lost", procs)
		}
		if !fn(procs[0], model.ProcessID(100)) {
			t.Fatalf("procs=%v: foreign sender lost", procs)
		}

		c := NewCapture(0.0, 0.0, 1) // always captures someone
		cfn := c.Plan(1, senders, procs)
		for _, rcv := range procs {
			got := 0
			for _, snd := range senders {
				if cfn(rcv, snd) {
					got++
				}
			}
			if got != 1 {
				t.Fatalf("procs=%v: receiver %d captured %d senders, want exactly 1", procs, rcv, got)
			}
		}
		// Foreign sender in a collision: not captured (documented Capture
		// semantics), on both index paths.
		if cfn(procs[0], model.ProcessID(100)) {
			t.Fatalf("procs=%v: foreign sender captured", procs)
		}
	}
}

// TestDenseIndexForeignSenderDegrades covers the degrade path: a sender
// outside the contiguous receiver range forces the binary-search fallback,
// which must still answer correctly.
func TestDenseIndexForeignSenderDegrades(t *testing.T) {
	procs := ids(4)
	senders := []model.ProcessID{2, 9} // 9 outside 1..4
	a := NewProbabilistic(0.0, 1)
	fn := a.Plan(1, senders, procs)
	if a.dense.on {
		t.Fatal("dense index stayed on with an out-of-range sender")
	}
	if !fn(1, 2) || !fn(1, 9) {
		t.Fatal("p=0 deliveries lost on the degraded path")
	}
}

// TestV2LossRateMatchesP is the statistical smoke: across many rounds the
// v2 counter streams must lose cross-pairs at rate P within tolerance, for
// the paper's empirical loss band.
func TestV2LossRateMatchesP(t *testing.T) {
	procs := ids(32)
	for _, p := range []float64{0.2, 0.5} {
		a := NewProbabilisticV2(p, 1234)
		lost, total := 0, 0
		for r := 1; r <= 200; r++ {
			fn := a.Plan(r, procs, procs)
			for _, rcv := range procs {
				for _, snd := range procs {
					if rcv == snd {
						continue
					}
					total++
					if !fn(rcv, snd) {
						lost++
					}
				}
			}
		}
		rate := float64(lost) / float64(total)
		if math.Abs(rate-p) > 0.01 {
			t.Errorf("p=%v: observed v2 loss rate %.4f over %d pairs", p, rate, total)
		}
	}
}

// TestV2CaptureRates smokes the capture adversary's v2 draws: lone
// broadcasts lost at PLoneLoss, collisions captured at 1-PNone, captured
// senders spread across the sender set.
func TestV2CaptureRates(t *testing.T) {
	procs := ids(32)
	a := NewCaptureV2(0.3, 0.2, 77)
	loneLost, loneTotal := 0, 0
	for r := 1; r <= 400; r++ {
		fn := a.Plan(r, procs[:1], procs)
		for _, rcv := range procs[1:] {
			loneTotal++
			if !fn(rcv, procs[0]) {
				loneLost++
			}
		}
	}
	if rate := float64(loneLost) / float64(loneTotal); math.Abs(rate-0.2) > 0.02 {
		t.Errorf("lone loss rate %.4f, want ~0.2", rate)
	}
	none, bySender, total := 0, make(map[model.ProcessID]int), 0
	for r := 1; r <= 400; r++ {
		fn := a.Plan(r, procs[:4], procs)
		for _, rcv := range procs {
			total++
			captured := false
			for _, snd := range procs[:4] {
				if fn(rcv, snd) {
					bySender[snd]++
					captured = true
				}
			}
			if !captured {
				none++
			}
		}
	}
	if rate := float64(none) / float64(total); math.Abs(rate-0.3) > 0.02 {
		t.Errorf("capture-nothing rate %.4f, want ~0.3", rate)
	}
	for snd, k := range bySender {
		share := float64(k) / float64(total-none)
		if math.Abs(share-0.25) > 0.03 {
			t.Errorf("sender %d captured share %.4f, want ~0.25", snd, share)
		}
	}
}

// TestV2SteadyStateAllocationFree extends the zero-allocation contract to
// the v2 schedule: after the first round sizes the scratch, Plan allocates
// nothing.
func TestV2SteadyStateAllocationFree(t *testing.T) {
	procs := ids(16)
	for _, tc := range []struct {
		name string
		adv  Adversary
	}{
		{"probabilistic", NewProbabilisticV2(0.4, 5)},
		{"capture", NewCaptureV2(0.3, 0.1, 5)},
	} {
		r := 0
		warm := func() {
			r++
			fn := tc.adv.Plan(r, procs, procs)
			fn(procs[0], procs[1])
		}
		warm()
		if avg := testing.AllocsPerRun(50, warm); avg > 0 {
			t.Errorf("%s: v2 Plan allocates %.1f objects/round in steady state", tc.name, avg)
		}
	}
}

// TestECFShardsShortCircuitWithoutDraws pins two ECF sharding contracts:
// collision-free rounds return the lossless plan (nil fill, nil matrix)
// and consume no stream draws (the next contended round's plan is
// unaffected), and contended rounds forward the base's filler.
func TestECFShardsShortCircuitWithoutDraws(t *testing.T) {
	procs := ids(8)
	e := ECF{Base: NewProbabilisticV2(0.4, 3), From: 2}
	fill, lost := e.PlanRows(5, procs[:1], procs)
	if fill != nil || lost != nil {
		t.Fatal("short-circuit round returned a filler or a loss matrix")
	}
	fill, _ = e.PlanRows(5, procs[:2], procs)
	if fill == nil {
		t.Fatal("contended round did not forward the base filler")
	}
	// The v1 equivalent must also not consume Rng draws on short-circuit
	// rounds: two adversaries, one asked for an extra short-circuit plan,
	// stay in lockstep.
	mk := func() ECF { return ECF{Base: NewProbabilistic(0.4, 3), From: 2} }
	x, y := mk(), mk()
	x.PlanRows(5, procs[:1], procs) // short-circuit: no draws
	_, lx := x.PlanRows(6, procs[:2], procs)
	px := rowsMatrix(lx, procs, procs[:2])
	py := planMatrix(y.Plan(6, procs[:2], procs), procs, procs[:2])
	if px != py {
		t.Fatal("ECF short-circuit round consumed v1 Rng draws")
	}
}

// TestV1PlanShardsSequentialEquivalence: a v1 adversary's PlanRows must
// perform the order-dependent draws itself (nil fill) and yield the exact
// plan Plan yields.
func TestV1PlanShardsSequentialEquivalence(t *testing.T) {
	procs := ids(12)
	senders := procs[:5]
	for _, tc := range []struct {
		name string
		mk   func() ConcurrentPlanner
	}{
		{"probabilistic", func() ConcurrentPlanner { return NewProbabilistic(0.4, 11) }},
		{"capture", func() ConcurrentPlanner { return NewCapture(0.3, 0.1, 11) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.mk(), tc.mk()
			for r := 1; r <= 5; r++ {
				want := planMatrix(a.Plan(r, senders, procs), procs, senders)
				fill, lost := b.PlanRows(r, senders, procs)
				if fill != nil {
					t.Fatalf("round %d: v1 PlanRows returned a filler", r)
				}
				if got := rowsMatrix(lost, procs, senders); got != want {
					t.Fatalf("round %d: PlanRows plan differs from Plan:\n%s\nwant:\n%s", r, got, want)
				}
			}
		})
	}
}

// TestConstantPlanRows checks the constant plans' matrices against their
// DeliveryFuncs, off the diagonal (self entries are never read), in lone
// and contended rounds, and that the shared all-lost matrix serves a
// smaller round after a larger one.
func TestConstantPlanRows(t *testing.T) {
	procs := ids(6)
	offDiagonal := func(m string, senders []model.ProcessID) string {
		b := []byte(m)
		for i, rcv := range procs {
			for j, snd := range senders {
				if rcv == snd {
					b[i*(len(senders)+1)+j] = '-'
				}
			}
		}
		return string(b)
	}
	for _, tc := range []struct {
		name string
		adv  ConcurrentPlanner
	}{
		{"none", None{}},
		{"drop", Drop{}},
		{"alpha", Alpha{}},
		{"ecf-nil", ECF{From: 1}},
		{"ecf-drop", ECF{Base: Drop{}, From: 3}},
	} {
		for _, senders := range [][]model.ProcessID{procs, procs[2:3], procs[1:4], nil} {
			for _, r := range []int{1, 4} {
				want := offDiagonal(planMatrix(tc.adv.Plan(r, senders, procs), procs, senders), senders)
				fill, lost := tc.adv.PlanRows(r, senders, procs)
				if fill != nil {
					t.Fatalf("%s: constant plan returned a filler", tc.name)
				}
				if got := offDiagonal(rowsMatrix(lost, procs, senders), senders); got != want {
					t.Fatalf("%s round %d senders %v: rows\n%s\nwant\n%s", tc.name, r, senders, got, want)
				}
			}
		}
	}
}

// TestDropRowsConcurrent reads and grows the shared all-lost matrix from
// several goroutines at once, as parallel sweeps over Drop and Alpha do.
func TestDropRowsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n <= 48; n++ {
				procs := ids(n * g)
				_, lost := Drop{}.PlanRows(1, procs, procs)
				if len(lost) != len(procs)*len(procs) || slices.Contains(lost, false) {
					t.Errorf("%d-process Drop matrix: %d entries, want %d, all lost", len(procs), len(lost), len(procs)*len(procs))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestScheduleConstructors documents which constructor yields which
// schedule.
func TestScheduleConstructors(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  int
		want int
	}{
		{"NewProbabilistic", NewProbabilistic(0.1, 1).Schedule, 0},
		{"NewProbabilisticV2", NewProbabilisticV2(0.1, 1).Schedule, 2},
		{"NewCapture", NewCapture(0.1, 0.1, 1).Schedule, 0},
		{"NewCaptureV2", NewCaptureV2(0.1, 0.1, 1).Schedule, 2},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: Schedule = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}
