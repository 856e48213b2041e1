package experiments

import (
	"fmt"
	"strconv"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/multihop"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/stats"
)

// m1Case is one flooding topology of the M1 grid.
type m1Case struct {
	name   string
	build  func() (*multihop.Topology, error)
	source multihop.NodeID
	slots  int
	lossP  float64
}

// m1Cases lists the topologies; the case name is the work item's parameter,
// so the builder closures never need to serialize.
func m1Cases() []m1Case {
	return []m1Case{
		{"line-10", func() (*multihop.Topology, error) { return multihop.NewLine(10, 1, 1.5) }, 0, 3, 0},
		{"line-20", func() (*multihop.Topology, error) { return multihop.NewLine(20, 1, 1.5) }, 0, 3, 0},
		{"line-40", func() (*multihop.Topology, error) { return multihop.NewLine(40, 1, 1.5) }, 0, 3, 0},
		{"grid-5x5", func() (*multihop.Topology, error) { return multihop.NewGrid(5, 5, 1, 1.1) }, 12, 4, 0.3},
		{"grid-8x8", func() (*multihop.Topology, error) { return multihop.NewGrid(8, 8, 1, 1.1) }, 0, 4, 0.3},
	}
}

// m1Seeds is how many independently seeded floods each topology runs.
const m1Seeds = 10

// m1WorkBuild declares M1, which measures the multihop extension (the
// paper's stated future work, §9): reliable broadcast by CD-assisted
// slotted flooding over line and grid topologies, with per-link loss.
// Coverage time must respect the Ω(D) distance bound and grow linearly with
// the diameter.
func m1WorkBuild() ([]sink.WorkItem, WorkRunFunc, WorkRenderFunc, error) {
	cases := m1Cases()
	// Every (case, seed) pair is one independent flood trial; each trial
	// builds its own topology and network, so items share no mutable state.
	items := make([]sink.WorkItem, 0, len(cases)*m1Seeds)
	for i := 0; i < len(cases)*m1Seeds; i++ {
		items = append(items, sink.WorkItem{
			Kind:   "multihop-flood",
			Index:  i,
			Seed:   int64(i%m1Seeds) + 1,
			Params: encodeKV(kv{"case", cases[i/m1Seeds].name}),
		})
	}

	caseByName := func(name string) (m1Case, error) {
		for _, tc := range cases {
			if tc.name == name {
				return tc, nil
			}
		}
		return m1Case{}, fmt.Errorf("experiments: unknown multihop case %q", name)
	}

	run := func(item sink.WorkItem) (string, error) {
		f := decodeKV(item.Params)
		name := f.str("case")
		if err := f.Err(); err != nil {
			return "", err
		}
		tc, err := caseByName(name)
		if err != nil {
			return "", err
		}
		topo, err := tc.build()
		if err != nil {
			return "", err
		}
		ecc := topo.Eccentricity(tc.source)
		flooders := make([]*multihop.Flooder, topo.Size())
		nodes := make([]multihop.Node, topo.Size())
		for j := range nodes {
			flooders[j] = multihop.NewFlooder(j, tc.slots, 3)
			nodes[j] = flooders[j]
		}
		net, err := multihop.NewNetwork(topo, nodes, detector.ZeroAC, tc.lossP, item.Seed)
		if err != nil {
			return "", err
		}
		flooders[tc.source].Inject(model.Value(7))
		covered := func() bool {
			for _, fl := range flooders {
				if !fl.Informed() {
					return false
				}
			}
			return true
		}
		r, done := net.RunUntil(covered, 5000)
		return encodeKV(
			kv{"rounds", strconv.Itoa(r)},
			kv{"ok", fmtBool(done && r >= ecc)},
		), nil
	}

	render := func(outs []string) (*Table, error) {
		if len(outs) != len(cases)*m1Seeds {
			return nil, fmt.Errorf("experiments: M1 render got %d outcomes, want %d", len(outs), len(cases)*m1Seeds)
		}
		t := &Table{
			Title:  "M1 — multihop extension: CD-assisted flooding (coverage rounds vs diameter, Ω(D) bound)",
			Header: []string{"topology", "nodes", "D from source", "loss", "coverage rounds (10 seeds)", "ok"},
			Pass:   true,
		}
		// Per-case metadata (node count, eccentricity) is derived from the
		// topology definitions, not the outcomes: rebuilding them here is
		// what keeps the renderer a pure function of the outcome slice.
		lineRounds := make(map[string]float64)
		for ci, tc := range cases {
			topo, err := tc.build()
			if err != nil {
				return nil, err
			}
			size, ecc := topo.Size(), topo.Eccentricity(tc.source)
			rounds := stats.NewCollector(m1Seeds)
			ok := true
			for k := 0; k < m1Seeds; k++ {
				f := decodeKV(outs[ci*m1Seeds+k])
				r, trialOK := f.int("rounds"), f.bool("ok")
				if err := f.Err(); err != nil {
					return nil, err
				}
				if !trialOK {
					ok = false
				}
				rounds.Set(k, float64(r))
			}
			if !ok {
				t.Pass = false
			}
			summary := rounds.Summary()
			lineRounds[tc.name] = summary.Median
			t.Rows = append(t.Rows, Row{Cells: []string{
				tc.name, fmt.Sprint(size), fmt.Sprint(ecc),
				fmt.Sprintf("%.0f%%", tc.lossP*100), summary.String(), yesNo(ok),
			}})
		}
		// Shape: doubling the line length must grow coverage rounds.
		if !(lineRounds["line-10"] < lineRounds["line-20"] && lineRounds["line-20"] < lineRounds["line-40"]) {
			t.Pass = false
		}
		t.Notes = append(t.Notes,
			"coverage always ≥ source eccentricity (the Ω(D) broadcast lower bound of [7,39,46])",
			"zero-complete collision detection re-arms relays, so 30% per-link loss cannot stall coverage")
		return t, nil
	}
	return items, run, render, nil
}
