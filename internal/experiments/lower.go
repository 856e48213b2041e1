package experiments

import (
	"fmt"
	"strconv"

	"adhocconsensus/internal/core"
	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/loss"
	"adhocconsensus/internal/lowerbound"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/valueset"
)

// t6Sizes are the enumerated value-domain sizes of the Algorithm 2 rows.
var t6Sizes = []uint64{64, 256, 4096}

// t6WorkBuild declares T6, which runs the Theorem 6 pipeline: for Algorithm
// 2 (the matching upper bound) the colliding alpha executions must still be
// undecided at K = ⌊lg|V|/2⌋−1; for Algorithm 1 (constant-round, too fast
// for half-AC) the Lemma 23 composition must exhibit an agreement violation
// with machine-checked indistinguishability.
func t6WorkBuild() ([]sink.WorkItem, WorkRunFunc, WorkRenderFunc, error) {
	procs := []model.ProcessID{1, 2, 3}
	alt := []model.ProcessID{101, 102, 103}

	// The Theorem 6 pipeline is deterministic and seed-free; each report is
	// one independent work item (the last is the Algorithm 1 composition).
	items := make([]sink.WorkItem, 0, len(t6Sizes)+1)
	for i, size := range t6Sizes {
		items = append(items, sink.WorkItem{
			Kind:   "theorem6",
			Index:  i,
			Params: encodeKV(kv{"alg", "alg2"}, kv{"size", strconv.FormatUint(size, 10)}),
		})
	}
	// Algorithm 1 pretends half-AC is enough: the composition catches it.
	items = append(items, sink.WorkItem{
		Kind:   "theorem6",
		Index:  len(t6Sizes),
		Params: encodeKV(kv{"alg", "alg1"}, kv{"size", "256"}),
	})

	run := func(item sink.WorkItem) (string, error) {
		f := decodeKV(item.Params)
		alg := f.str("alg")
		size := f.uint64("size")
		if err := f.Err(); err != nil {
			return "", err
		}
		domain, err := valueset.NewDomain(size)
		if err != nil {
			return "", err
		}
		var factory lowerbound.AnonFactory
		switch alg {
		case "alg2":
			factory = func(v model.Value) model.Automaton { return core.NewAlg2(domain, v) }
		case "alg1":
			factory = func(v model.Value) model.Automaton { return core.NewAlg1(v) }
		default:
			return "", fmt.Errorf("experiments: unknown theorem6 algorithm %q", alg)
		}
		report, err := lowerbound.RunTheorem6(factory, procs, alt, domain)
		if err != nil {
			return "", err
		}
		gammaIndist, gammaLegal := false, false
		if report.Gamma != nil {
			gammaIndist = report.Gamma.Indistinguishable
			gammaLegal = report.Gamma.DetectorLegal
		}
		return encodeKV(
			kv{"k", strconv.Itoa(report.K)},
			kv{"decided", fmtBool(report.BothDecidedByK)},
			kv{"counterexample", fmtBool(report.CounterexampleExhibited())},
			kv{"indist", fmtBool(gammaIndist)},
			kv{"legal", fmtBool(gammaLegal)},
		), nil
	}

	render := func(outs []string) (*Table, error) {
		if len(outs) != len(t6Sizes)+1 {
			return nil, fmt.Errorf("experiments: T6 render got %d outcomes, want %d", len(outs), len(t6Sizes)+1)
		}
		t := &Table{
			Title:  "T6 — Theorem 6: anonymous half-AC consensus needs Ω(lg|V|) rounds after CST",
			Header: []string{"algorithm", "|V|", "K", "decided by K", "outcome"},
			Pass:   true,
		}
		for i, size := range t6Sizes {
			f := decodeKV(outs[i])
			k, decided := f.int("k"), f.bool("decided")
			if err := f.Err(); err != nil {
				return nil, err
			}
			outcome := "bound respected (undecided at K)"
			if decided {
				outcome = "BOUND BROKEN"
				t.Pass = false
			}
			t.Rows = append(t.Rows, Row{Cells: []string{
				"Alg 2 (safe)", fmt.Sprint(size), fmt.Sprint(k),
				yesNo(decided), outcome,
			}})
		}
		f := decodeKV(outs[len(t6Sizes)])
		k, decided := f.int("k"), f.bool("decided")
		counterexample := f.bool("counterexample") && f.bool("indist") && f.bool("legal")
		if err := f.Err(); err != nil {
			return nil, err
		}
		outcome := "γ: agreement violated, indistinguishable, half-AC-legal"
		if !counterexample {
			outcome = "composition FAILED"
			t.Pass = false
		}
		t.Rows = append(t.Rows, Row{Cells: []string{
			"Alg 1 (too fast)", "256", fmt.Sprint(k),
			yesNo(decided), outcome,
		}})
		t.Notes = append(t.Notes,
			"K = ⌊lg|V|/2⌋−1: the pigeonhole prefix of Lemma 21 over the algorithm's own alpha executions",
			"the composed γ is a legal half-AC execution gluing two value-assignments the processes cannot tell apart")
		return t, nil
	}
	return items, run, render, nil
}

// t7Sizes are the enumerated value-domain sizes of the Theorem 7 searches.
var t7Sizes = []uint64{16, 64}

// t7WorkBuild declares T7, which runs the Theorem 7 (Lemma 22) search for
// the §7.3 non-anonymous algorithm over disjoint index subsets.
func t7WorkBuild() ([]sink.WorkItem, WorkRunFunc, WorkRenderFunc, error) {
	items := make([]sink.WorkItem, 0, len(t7Sizes))
	for i, size := range t7Sizes {
		items = append(items, sink.WorkItem{
			Kind:   "theorem7",
			Index:  i,
			Params: encodeKV(kv{"size", strconv.FormatUint(size, 10)}),
		})
	}
	run := func(item sink.WorkItem) (string, error) {
		f := decodeKV(item.Params)
		size := f.uint64("size")
		if err := f.Err(); err != nil {
			return "", err
		}
		valD, err := valueset.NewDomain(size)
		if err != nil {
			return "", err
		}
		idD, err := valueset.NewDomain(1 << 10)
		if err != nil {
			return "", err
		}
		factory := func(id model.ProcessID, v model.Value) model.Automaton {
			return core.NewNonAnon(idD, valD, model.Value(id), v)
		}
		subsets := [][]model.ProcessID{
			{1, 2, 3}, {11, 12, 13}, {21, 22, 23},
		}
		k := lowerbound.Theorem6K(valD)
		report, err := lowerbound.RunTheorem7(factory, subsets, valD, k)
		if err != nil {
			return "", err
		}
		return encodeKV(
			kv{"k", strconv.Itoa(report.K)},
			kv{"decided", fmtBool(report.BothDecidedByK)},
		), nil
	}
	render := func(outs []string) (*Table, error) {
		if len(outs) != len(t7Sizes) {
			return nil, fmt.Errorf("experiments: T7 render got %d outcomes, want %d", len(outs), len(t7Sizes))
		}
		t := &Table{
			Title:  "T7 — Theorem 7/Corollary 3: non-anonymous half-AC consensus needs Ω(min{lg|V|, lg(|I|/n)}) rounds",
			Header: []string{"|V|", "|I|", "K", "decided by K", "outcome"},
			Pass:   true,
		}
		for i, size := range t7Sizes {
			f := decodeKV(outs[i])
			k, decided := f.int("k"), f.bool("decided")
			if err := f.Err(); err != nil {
				return nil, err
			}
			outcome := "bound respected (undecided at K)"
			if decided {
				outcome = "BOUND BROKEN"
				t.Pass = false
			}
			t.Rows = append(t.Rows, Row{Cells: []string{
				fmt.Sprint(size), "1024", fmt.Sprint(k),
				yesNo(decided), outcome,
			}})
		}
		t.Notes = append(t.Notes,
			"unique IDs do not beat the bound: the colliding pair differs in BOTH the process set and the value")
		return t, nil
	}
	return items, run, render, nil
}

// t8Build declares T8, the single-message separation: the exact-half
// partition adversary breaks Algorithm 1 under half-AC (agreement
// violation) but is harmless under maj-AC (forced notifications make
// everyone veto forever).
func t8Build() ([]sim.Scenario, RenderFunc, error) {
	const n = 4
	cases := []struct {
		class  detector.Class
		expect string // "violated" or "safe"
	}{
		{detector.HalfAC, "violated"},
		{detector.MajAC, "safe"},
	}
	var scenarios []sim.Scenario
	for _, tc := range cases {
		s := baseScenario()
		s.Name = "T8/" + tc.class.Name
		s.Algorithm = sim.AlgPropose
		s.Detector = tc.class
		s.BuildBehavior = minimalDetector
		s.Values = []model.Value{1, 1, 2, 2}
		s.BuildLoss = partitionLoss(loss.Partition{GroupOf: loss.SplitAt(model.ProcessID(n/2 + 1)), Until: loss.NoRepair})
		s.MaxRounds = 40
		scenarios = append(scenarios, s)
	}
	render := func(results []sim.Result) (*Table, error) {
		t := &Table{
			Title:  "T8 — the maj/half single-message gap: Algorithm 1 under the exact-half partition",
			Header: []string{"detector", "n", "decisions", "agreement", "expected"},
			Pass:   true,
		}
		for i, tc := range cases {
			res := results[i]
			violated := len(res.DecidedValues) > 1
			agreement := "ok"
			if violated {
				agreement = "VIOLATED"
			}
			ok := (tc.expect == "violated") == violated
			if tc.expect == "safe" && res.Decisions != 0 {
				ok = false // must not decide at all during a permanent partition
			}
			if !ok {
				t.Pass = false
			}
			t.Rows = append(t.Rows, Row{Cells: []string{
				tc.class.Name, fmt.Sprint(n), fmt.Sprint(res.Decisions), agreement, tc.expect,
			}})
		}
		t.Notes = append(t.Notes,
			"each process receives exactly half the proposals (its own group's): half-completeness permits silence, majority completeness does not",
			"one message of detector strength separates Θ(1) from Θ(lg|V|) consensus")
		return t, nil
	}
	return scenarios, render, nil
}

// t9CaseNames orders the five T9 constructions; each is one work item.
var t9CaseNames = []string{"t4-honest", "t4-strawman", "t8-constant", "t9-alg3", "t9-strawman"}

// t9WorkBuild declares T9, which runs the Theorem 4, 8, and 9
// constructions, exercising both branches of each dichotomy.
func t9WorkBuild() ([]sink.WorkItem, WorkRunFunc, WorkRenderFunc, error) {
	items := make([]sink.WorkItem, 0, len(t9CaseNames))
	for i, name := range t9CaseNames {
		items = append(items, sink.WorkItem{
			Kind:   "theorem9",
			Index:  i,
			Params: encodeKV(kv{"case", name}),
		})
	}
	run := func(item sink.WorkItem) (string, error) {
		f := decodeKV(item.Params)
		name := f.str("case")
		if err := f.Err(); err != nil {
			return "", err
		}
		dv := valueset.MustDomain(16)
		d64 := valueset.MustDomain(64)
		pa := []model.ProcessID{1, 2, 3}
		pb := []model.ProcessID{11, 12, 13}
		switch name {
		case "t4-honest":
			// Theorem 4 — honest algorithm: no termination with NoCD.
			r, err := lowerbound.RunTheorem4(
				lowerbound.Anon(func(v model.Value) model.Automaton { return core.NewAlg2(dv, v) }),
				pa, pb, 3, 9, 300)
			if err != nil {
				return "", err
			}
			return encodeKV(kv{"term", fmtBool(r.TerminationFailed)}, kv{"detail", r.Detail}), nil
		case "t4-strawman":
			// Theorem 4 — timeout strawman: γ violates agreement.
			r, err := lowerbound.RunTheorem4(
				lowerbound.Anon(func(v model.Value) model.Automaton {
					return &lowerbound.Timeout{Value: v, After: 5}
				}), pa, pb, 3, 9, 300)
			if err != nil {
				return "", err
			}
			return encodeKV(kv{"agree", fmtBool(r.AgreementViolated)},
				kv{"indist", fmtBool(r.Indistinguishable)}, kv{"detail", r.Detail}), nil
		case "t8-constant":
			// Theorem 8 — constant strawman: β violates uniform validity.
			r, err := lowerbound.RunTheorem8(
				func(_ model.ProcessID, v model.Value) model.Automaton {
					return lowerbound.NewConstant(v, 3, 6)
				}, pa, pb, 3, 9, 300)
			if err != nil {
				return "", err
			}
			return encodeKV(kv{"valid", fmtBool(r.ValidityViolated)},
				kv{"indist", fmtBool(r.Indistinguishable)}, kv{"detail", r.Detail}), nil
		case "t9-alg3":
			// Theorem 9 — Algorithm 3 respects lg|V|−1.
			r, err := lowerbound.RunTheorem9(
				func(v model.Value) model.Automaton { return core.NewAlg3(d64, v) }, 3, d64)
			if err != nil {
				return "", err
			}
			return encodeKV(kv{"decided", fmtBool(r.BothDecidedByK)}, kv{"k", strconv.Itoa(r.K)}), nil
		case "t9-strawman":
			// Theorem 9 — the timeout strawman is caught by the composition.
			r, err := lowerbound.RunTheorem9(
				func(v model.Value) model.Automaton { return &lowerbound.Timeout{Value: v, After: 2} }, 3, d64)
			if err != nil {
				return "", err
			}
			return encodeKV(kv{"agree", fmtBool(r.AgreementViolated)},
				kv{"indist", fmtBool(r.Indistinguishable)},
				kv{"v1", strconv.FormatUint(uint64(r.V1), 10)},
				kv{"v2", strconv.FormatUint(uint64(r.V2), 10)},
				kv{"k", strconv.Itoa(r.K)}), nil
		default:
			return "", fmt.Errorf("experiments: unknown theorem9 case %q", name)
		}
	}
	render := func(outs []string) (*Table, error) {
		if len(outs) != len(t9CaseNames) {
			return nil, fmt.Errorf("experiments: T9 render got %d outcomes, want %d", len(outs), len(t9CaseNames))
		}
		t := &Table{
			Title:  "T9 — Theorems 4, 8, 9: impossibility constructions",
			Header: []string{"theorem", "algorithm", "witness"},
			Pass:   true,
		}
		f0 := decodeKV(outs[0])
		if !f0.bool("term") {
			t.Pass = false
		}
		t.Rows = append(t.Rows, Row{Cells: []string{"4 (NoCD)", "Alg 2", f0.str("detail")}})

		f1 := decodeKV(outs[1])
		if !f1.bool("agree") || !f1.bool("indist") {
			t.Pass = false
		}
		t.Rows = append(t.Rows, Row{Cells: []string{"4 (NoCD)", "timeout strawman", f1.str("detail")}})

		f2 := decodeKV(outs[2])
		if !f2.bool("valid") || !f2.bool("indist") {
			t.Pass = false
		}
		t.Rows = append(t.Rows, Row{Cells: []string{"8 (◇AC, no ECF)", "constant strawman", f2.str("detail")}})

		f3 := decodeKV(outs[3])
		if f3.bool("decided") {
			t.Pass = false
		}
		t.Rows = append(t.Rows, Row{Cells: []string{"9 (AC, no ECF)", "Alg 3",
			fmt.Sprintf("undecided at K=%d: bound respected", f3.int("k"))}})

		f4 := decodeKV(outs[4])
		if !f4.bool("agree") || !f4.bool("indist") {
			t.Pass = false
		}
		t.Rows = append(t.Rows, Row{Cells: []string{"9 (AC, no ECF)", "timeout strawman",
			fmt.Sprintf("composed execution decides both %d and %d by K=%d",
				f4.uint64("v1"), f4.uint64("v2"), f4.int("k"))}})

		for _, f := range []*fields{f0, f1, f2, f3, f4} {
			if err := f.Err(); err != nil {
				return nil, err
			}
		}
		t.Notes = append(t.Notes,
			"each theorem's dichotomy is exercised on both branches: honest algorithms fail termination, too-fast strawmen are caught violating safety",
			"indistinguishability of the composed executions is machine-checked view-by-view")
		return t, nil
	}
	return items, run, render, nil
}
