package cm

import (
	"testing"

	"adhocconsensus/internal/model"
)

var procs = []model.ProcessID{3, 1, 7, 5}

func allAlive(model.ProcessID) bool { return true }

func aliveExcept(dead ...model.ProcessID) func(model.ProcessID) bool {
	deadSet := make(map[model.ProcessID]bool, len(dead))
	for _, d := range dead {
		deadSet[d] = true
	}
	return func(id model.ProcessID) bool { return !deadSet[id] }
}

func countActive(m map[model.ProcessID]model.CMAdvice) (int, model.ProcessID) {
	n, who := 0, model.ProcessID(-1)
	for id, a := range m {
		if a == model.CMActive {
			n++
			who = id
		}
	}
	return n, who
}

func TestNoCMAllActive(t *testing.T) {
	adv := NoCM{}.Advise(1, procs, allAlive)
	if n, _ := countActive(adv); n != len(procs) {
		t.Fatalf("NoCM active count = %d, want %d", n, len(procs))
	}
}

func TestWakeUpPreStabilizationDefault(t *testing.T) {
	w := WakeUp{Stable: 5}
	adv := w.Advise(4, procs, allAlive)
	if n, _ := countActive(adv); n != len(procs) {
		t.Fatalf("pre-stabilization default must be all-active, got %d", n)
	}
}

func TestWakeUpStabilizesOnMinAlive(t *testing.T) {
	w := WakeUp{Stable: 3}
	adv := w.Advise(3, procs, allAlive)
	if n, who := countActive(adv); n != 1 || who != 1 {
		t.Fatalf("stabilized advice = (%d, p%d), want (1, p1)", n, who)
	}
	adv = w.Advise(10, procs, aliveExcept(1))
	if n, who := countActive(adv); n != 1 || who != 3 {
		t.Fatalf("after p1 crash = (%d, p%d), want (1, p3)", n, who)
	}
}

// TestMinAliveQueries checks minAlive's answer against a reference on every
// crash subset and rotation of the unsorted table, and counts the liveness
// queries a stabilized wake-up round makes on a sorted 256-process table:
// one, plus one per crashed process ahead of the first alive one.
func TestMinAliveQueries(t *testing.T) {
	for mask := 0; mask < 1<<len(procs); mask++ {
		var dead []model.ProcessID
		for i, id := range procs {
			if mask&(1<<i) != 0 {
				dead = append(dead, id)
			}
		}
		alive := aliveExcept(dead...)
		want := model.ProcessID(-1)
		for _, id := range procs {
			if alive(id) && (want == -1 || id < want) {
				want = id
			}
		}
		if want == -1 {
			want = 1 // all crashed: the smallest index
		}
		for rot := range procs {
			order := append(append([]model.ProcessID{}, procs[rot:]...), procs[:rot]...)
			if got := minAlive(order, alive); got != want {
				t.Fatalf("dead %v, order %v: minAlive = p%d, want p%d", dead, order, got, want)
			}
		}
	}

	sorted := make([]model.ProcessID, 256)
	for i := range sorted {
		sorted[i] = model.ProcessID(i + 1)
	}
	out := make([]model.CMAdvice, len(sorted))
	for _, k := range []int{0, 1, 17, 255, 256} {
		calls := 0
		alive := func(id model.ProcessID) bool {
			calls++
			return int(id) > k
		}
		WakeUp{Stable: 1}.AdviseInto(5, sorted, alive, out)
		leader := k // index of the first alive process
		if k == len(sorted) {
			leader = 0 // all crashed: the smallest index
		}
		if out[leader] != model.CMActive {
			t.Fatalf("first %d crashed: p%d not active", k, sorted[leader])
		}
		wantCalls := min(k+1, len(sorted))
		if calls != wantCalls {
			t.Fatalf("first %d crashed: %d liveness queries, want %d", k, calls, wantCalls)
		}
	}
}

func TestWakeUpRotates(t *testing.T) {
	w := WakeUp{Stable: 1, Rotate: true}
	seen := make(map[model.ProcessID]bool)
	for r := 1; r <= 8; r++ {
		adv := w.Advise(r, procs, allAlive)
		n, who := countActive(adv)
		if n != 1 {
			t.Fatalf("round %d active count = %d, want 1", r, n)
		}
		seen[who] = true
	}
	if len(seen) != len(procs) {
		t.Fatalf("rotation visited %d processes, want %d", len(seen), len(procs))
	}
}

func TestWakeUpPreRandomDeterministic(t *testing.T) {
	a := WakeUp{Stable: 100, Pre: PreRandom(42, 0.5)}
	b := WakeUp{Stable: 100, Pre: PreRandom(42, 0.5)}
	for r := 1; r <= 20; r++ {
		advA := a.Advise(r, procs, allAlive)
		advB := b.Advise(r, procs, allAlive)
		for _, id := range procs {
			if advA[id] != advB[id] {
				t.Fatalf("round %d: PreRandom not deterministic for p%d", r, id)
			}
		}
	}
}

func TestPreNoneActive(t *testing.T) {
	w := WakeUp{Stable: 10, Pre: PreNoneActive}
	adv := w.Advise(1, procs, allAlive)
	if n, _ := countActive(adv); n != 0 {
		t.Fatalf("PreNoneActive gave %d active", n)
	}
}

func TestLeaderElectionFixedLeader(t *testing.T) {
	l := &LeaderElection{Stable: 2, Leader: 5}
	for r := 2; r <= 6; r++ {
		adv := l.Advise(r, procs, allAlive)
		if n, who := countActive(adv); n != 1 || who != 5 {
			t.Fatalf("round %d leader = (%d, p%d), want (1, p5)", r, n, who)
		}
	}
}

func TestLeaderElectionReStabilizesAfterCrash(t *testing.T) {
	l := NewLeaderElection(1)
	adv := l.Advise(1, procs, allAlive)
	if _, who := countActive(adv); who != 1 {
		t.Fatalf("initial leader = p%d, want p1", who)
	}
	adv = l.Advise(2, procs, aliveExcept(1))
	if n, who := countActive(adv); n != 1 || who != 3 {
		t.Fatalf("post-crash leader = (%d, p%d), want (1, p3)", n, who)
	}
	// Leader stays fixed afterwards.
	adv = l.Advise(3, procs, aliveExcept(1))
	if _, who := countActive(adv); who != 3 {
		t.Fatalf("leader changed without a crash: p%d", who)
	}
}

func TestLeaderElectionAllCrashed(t *testing.T) {
	l := NewLeaderElection(1)
	adv := l.Advise(1, procs, func(model.ProcessID) bool { return false })
	if n, _ := countActive(adv); n != 1 {
		t.Fatalf("all-crashed advice must still be well-formed, got %d active", n)
	}
}

func TestExplicitSchedule(t *testing.T) {
	e := Explicit{Rounds: []map[model.ProcessID]bool{
		{1: true, 3: true},
		{},
	}}
	adv := e.Advise(1, procs, allAlive)
	if n, _ := countActive(adv); n != 2 {
		t.Fatalf("round 1 active = %d, want 2", n)
	}
	adv = e.Advise(2, procs, allAlive)
	if n, _ := countActive(adv); n != 0 {
		t.Fatalf("round 2 active = %d, want 0", n)
	}
	// Past the schedule: defaults to single min-alive.
	adv = e.Advise(3, procs, allAlive)
	if n, who := countActive(adv); n != 1 || who != 1 {
		t.Fatalf("tail advice = (%d, p%d), want (1, p1)", n, who)
	}
}

func TestExplicitTailOverride(t *testing.T) {
	e := Explicit{Tail: PreAllActive}
	adv := e.Advise(9, procs, allAlive)
	if n, _ := countActive(adv); n != len(procs) {
		t.Fatalf("tail override ignored: %d active", n)
	}
}

// --- validator tests ---

func trace(active ...[]model.ProcessID) model.CMTrace {
	out := make(model.CMTrace, len(active))
	for i, act := range active {
		m := make(map[model.ProcessID]model.CMAdvice, len(procs))
		for _, id := range procs {
			m[id] = model.CMPassive
		}
		for _, id := range act {
			m[id] = model.CMActive
		}
		out[i] = m
	}
	return out
}

func TestWakeUpStabilization(t *testing.T) {
	cmt := trace(
		[]model.ProcessID{1, 3},
		[]model.ProcessID{},
		[]model.ProcessID{5},
		[]model.ProcessID{7},
	)
	got, err := WakeUpStabilization(cmt)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if got != 3 {
		t.Fatalf("rwake = %d, want 3", got)
	}
}

func TestWakeUpStabilizationNever(t *testing.T) {
	cmt := trace([]model.ProcessID{1}, []model.ProcessID{1, 3})
	if _, err := WakeUpStabilization(cmt); err == nil {
		t.Fatal("unstabilized trace accepted")
	}
}

func TestLeaderStabilization(t *testing.T) {
	cmt := trace(
		[]model.ProcessID{1, 3},
		[]model.ProcessID{5},
		[]model.ProcessID{7}, // leader changed: stabilization restarts here
		[]model.ProcessID{7},
	)
	got, err := LeaderStabilization(cmt)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if got != 3 {
		t.Fatalf("rlead = %d, want 3", got)
	}
}

func TestLeaderStabilizationWakeUpOnlyFails(t *testing.T) {
	// Alternating single-active processes satisfy wake-up but not leader
	// election on the final round pair.
	cmt := trace([]model.ProcessID{1}, []model.ProcessID{3})
	rwake, err := WakeUpStabilization(cmt)
	if err != nil || rwake != 1 {
		t.Fatalf("wake-up check wrong: %d, %v", rwake, err)
	}
	rlead, err := LeaderStabilization(cmt)
	if err != nil || rlead != 2 {
		t.Fatalf("leader check = (%d, %v), want (2, nil)", rlead, err)
	}
}

func TestServicesSatisfyTheirProperties(t *testing.T) {
	// Record advice traces from each service and validate them.
	services := []struct {
		name   string
		s      Service
		leader bool
	}{
		{"WakeUp", WakeUp{Stable: 4}, false},
		{"WakeUpRotate", WakeUp{Stable: 4, Rotate: true}, false},
		{"LeaderElection", NewLeaderElection(4), true},
		{"NoCM-singleproc", NoCM{}, false},
	}
	for _, tt := range services {
		t.Run(tt.name, func(t *testing.T) {
			ps := procs
			if tt.name == "NoCM-singleproc" {
				ps = []model.ProcessID{2} // NoCM satisfies WS only with one process
			}
			var cmt model.CMTrace
			for r := 1; r <= 12; r++ {
				cmt = append(cmt, tt.s.Advise(r, ps, allAlive))
			}
			rwake, err := WakeUpStabilization(cmt)
			if err != nil {
				t.Fatalf("wake-up property violated: %v", err)
			}
			if rwake > 4 && tt.name != "NoCM-singleproc" {
				t.Fatalf("stabilized later than configured: rwake=%d", rwake)
			}
			if tt.leader {
				if _, err := LeaderStabilization(cmt); err != nil {
					t.Fatalf("leader property violated: %v", err)
				}
			}
		})
	}
}

func TestTraceErrorMessage(t *testing.T) {
	err := &TraceError{"wake-up", "detail"}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
}

// TestDenseAdviceMatchesMapAdvice drives every DenseAdviser through both
// entry points across rounds, alive sets, and pre-stabilization behaviors:
// AdviseInto must write exactly what Advise returns.
func TestDenseAdviceMatchesMapAdvice(t *testing.T) {
	procs := []model.ProcessID{1, 3, 4, 7}
	alives := map[string]func(model.ProcessID) bool{
		"all alive": nil,
		"1 crashed": func(id model.ProcessID) bool { return id != 1 },
		"only 7":    func(id model.ProcessID) bool { return id == 7 },
	}
	services := map[string]Service{
		"NoCM":            NoCM{},
		"WakeUp":          WakeUp{Stable: 3},
		"WakeUp rotate":   WakeUp{Stable: 3, Rotate: true},
		"WakeUp pre-none": WakeUp{Stable: 5, Pre: PreNoneActive},
	}
	for sname, svc := range services {
		dense, ok := svc.(DenseAdviser)
		if !ok {
			t.Fatalf("%s does not implement DenseAdviser", sname)
		}
		for aname, alive := range alives {
			out := make([]model.CMAdvice, len(procs))
			for r := 1; r <= 8; r++ {
				want := svc.Advise(r, procs, alive)
				dense.AdviseInto(r, procs, alive, out)
				for i, id := range procs {
					if out[i] != want[id] {
						t.Fatalf("%s/%s round %d: AdviseInto[%d]=%v, Advise=%v",
							sname, aname, r, id, out[i], want[id])
					}
				}
			}
		}
	}
}
