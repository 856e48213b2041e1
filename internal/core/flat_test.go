package core

import (
	"fmt"
	"reflect"
	"testing"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/valueset"
)

// TestAutomataAreFlatValues walks the fields of every core automaton and
// rejects any that refers to memory outside the value: a pointer, slice,
// map, channel, function or interface. A copy of a flat automaton is an
// independent clone, and the value itself is its state key.
func TestAutomataAreFlatValues(t *testing.T) {
	for _, a := range []any{Alg1{}, Alg1NoVeto{}, Alg2{}, Alg3{}, NonAnon{}} {
		typ := reflect.TypeOf(a)
		for _, field := range indirections(typ, typ.Name()) {
			t.Errorf("%s is not a flat value", field)
		}
	}
}

// indirections lists the fields of typ, named from path, that refer to
// memory outside the value.
func indirections(typ reflect.Type, path string) []string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface:
		return []string{path + " (" + typ.Kind().String() + ")"}
	case reflect.Array:
		return indirections(typ.Elem(), path+"[]")
	case reflect.Struct:
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			out = append(out, indirections(f.Type, path+"."+f.Name)...)
		}
		return out
	}
	return nil
}

// TestAutomatonCopyIsClone records a full-trace run of each automaton,
// replays every surviving process's views into a fresh automaton, and at
// every round copies it by value: the original and each copy, fed the same
// views from there on, must broadcast the recorded messages and reach the
// recorded decision. The runs cover a noisy prefix under loss, and for
// Alg 3 and the election regime of NonAnon a crash that makes the
// survivors climb back up the tree or detect the dead leader and re-arm.
func TestAutomatonCopyIsClone(t *testing.T) {
	values := []model.Value{30, 7, 7, 12}
	noisy := func(class detector.Class, seed int64) env {
		return env{
			class:    class,
			behavior: detector.Noisy{P: 0.25, Rng: seededRng(seed)},
			race:     12,
			cmStable: 12,
			ecfFrom:  12,
			base:     loss.NewProbabilistic(0.3, seed),
			maxR:     600,
		}
	}
	valD := valueset.MustDomain(64)
	t.Run("Alg1", func(t *testing.T) {
		e := noisy(detector.MajOAC, 3)
		procs, initial := alg1Procs(4, values...)
		checkClones(t, run(t, e, procs, initial), e.crashes, func(id model.ProcessID) *Alg1 {
			return NewAlg1(initial[id])
		})
	})
	t.Run("Alg1NoVeto", func(t *testing.T) {
		e := noisy(detector.MajOAC, 4)
		procs := make(map[model.ProcessID]model.Automaton)
		initial := make(map[model.ProcessID]model.Value)
		for i, v := range values {
			procs[model.ProcessID(i+1)], initial[model.ProcessID(i+1)] = NewAlg1NoVeto(v), v
		}
		checkClones(t, run(t, e, procs, initial), e.crashes, func(id model.ProcessID) *Alg1NoVeto {
			return NewAlg1NoVeto(initial[id])
		})
	})
	t.Run("Alg2", func(t *testing.T) {
		e := noisy(detector.ZeroOAC, 5)
		procs, initial := alg2Procs(4, valD, values...)
		checkClones(t, run(t, e, procs, initial), e.crashes, func(id model.ProcessID) *Alg2 {
			return NewAlg2(valD, initial[id])
		})
	})
	t.Run("Alg3", func(t *testing.T) {
		// T4's deep-left crash: the walk follows process 1 to its leaf,
		// where it dies, and the survivors must climb back.
		d := valueset.MustDomain(256)
		e := env{
			class:   detector.ZeroAC,
			base:    loss.NewCapture(0.3, 0.1, 6),
			crashes: model.Schedule{1: {Round: 4*d.Height() - 3, Time: model.CrashBeforeSend}},
			maxR:    600,
		}
		procs, initial := alg3Procs(3, d, 0, 254, 255)
		checkClones(t, run(t, e, procs, initial), e.crashes, func(id model.ProcessID) *Alg3 {
			return NewAlg3(d, initial[id])
		})
	})
	for _, tc := range []struct {
		name string
		idD  valueset.Domain
		e    env
	}{
		// The first elected leader, process 1, crashes before it can
		// disseminate (TestNonAnonLeaderCrashRecovery).
		{"NonAnon/election", valueset.MustDomain(8), env{
			class:    detector.ZeroOAC,
			cmStable: 1,
			ecfFrom:  1,
			crashes:  model.Schedule{1: {Round: 14, Time: model.CrashBeforeSend}},
			maxR:     600,
		}},
		{"NonAnon/election-noisy", valueset.MustDomain(8), noisy(detector.ZeroOAC, 7)},
		{"NonAnon/plain", valueset.MustDomain(1 << 48), noisy(detector.ZeroOAC, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids := []model.Value{1, 4, 6, 7}
			procs, initial := nonAnonProcs(4, tc.idD, valD, ids, values)
			checkClones(t, run(t, tc.e, procs, initial), tc.e.crashes, func(id model.ProcessID) *NonAnon {
				return NewNonAnon(tc.idD, valD, ids[id-1], initial[id])
			})
		})
	}
}

// checkClones replays each process of res that the crash schedule spares
// into fresh(id), copying the automaton by value before every round and
// replaying each copy to the end of the record beside the original.
func checkClones[T any, P interface {
	*T
	model.Automaton
	model.Decider
}](t *testing.T, res *engine.Result, crashes model.Schedule, fresh func(id model.ProcessID) P) {
	t.Helper()
	exec := res.Execution
	for _, id := range exec.Procs {
		if _, crashed := crashes[id]; crashed {
			continue
		}
		want, wantOK := res.Decisions[id]
		a := fresh(id)
		for r := 1; r <= exec.NumRounds() && !a.Halted(); r++ {
			clone := *a
			who := fmt.Sprintf("a copy taken before round %d", r)
			if got, ok := replay(t, exec, id, r, exec.NumRounds(), P(&clone), who); ok != wantOK || got != want {
				t.Fatalf("process %d: %s decided %+v (%t), recorded %+v (%t)", id, who, got, ok, want, wantOK)
			}
			replay(t, exec, id, r, r, a, "the original")
		}
		if got, ok := a.Decided(); ok != wantOK || got != want.Value {
			t.Fatalf("process %d: the replay decided %d (%t), recorded %+v (%t)", id, got, ok, want, wantOK)
		}
	}
}

// replay feeds process id's views of rounds from through to into a until
// it halts, checks that a broadcasts what the process broadcast, and
// returns a's decision with the round it was reached in.
func replay(t *testing.T, exec *model.Execution, id model.ProcessID, from, to int, a interface {
	model.Automaton
	model.Decider
}, who string) (model.Decision, bool) {
	t.Helper()
	for r := from; r <= to && !a.Halted(); r++ {
		v, _ := exec.View(id, r)
		m := a.Message(r, v.CM)
		if (m == nil) != (v.Sent == nil) || m != nil && *m != *v.Sent {
			t.Fatalf("process %d round %d: %s broadcast %v, recorded %v", id, r, who, m, v.Sent)
		}
		a.Deliver(r, v.Recv, v.CD, v.CM)
		if val, ok := a.Decided(); ok {
			return model.Decision{Value: val, Round: r}, true
		}
	}
	return model.Decision{}, false
}
