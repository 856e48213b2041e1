package sim

import (
	"fmt"
	"strings"
)

// spelling is one row of a name table, which is indexed by value: the name
// a record carries (sink.Params) and a flag accepts, a second spelling the
// flag also accepts, and, for algorithms, the display name String prints.
type spelling struct{ name, alias, display string }

// algorithmNames is Algorithm's name table. The A1 ablation variant is
// only ever recorded: it has no display name, and no flag accepts it.
var algorithmNames = [...]spelling{
	AlgPropose:       {"propose", "alg1", "propose-veto (Alg 1)"},
	AlgBitByBit:      {"bitbybit", "alg2", "bit-by-bit (Alg 2)"},
	AlgTreeWalk:      {"treewalk", "alg3", "tree-walk (Alg 3)"},
	AlgLeaderRelay:   {"leaderrelay", "nonanon", "leader-relay (§7.3)"},
	AlgProposeNoVeto: {name: "propose-noveto"},
}

// cmNames is CMMode's name table.
var cmNames = [...]spelling{
	CMAuto:    {name: "auto"},
	CMWakeUp:  {name: "wakeup"},
	CMLeader:  {name: "leader"},
	CMBackoff: {name: "backoff"},
	CMNone:    {name: "none"},
}

// lossNames is LossMode's name table.
var lossNames = [...]spelling{
	LossNone:          {name: "none"},
	LossProbabilistic: {name: "prob", alias: "probabilistic"},
	LossCapture:       {name: "capture"},
	LossDrop:          {name: "drop"},
}

// nameOf is the recorded name of value v, kind(v) outside the table.
func nameOf(table []spelling, v int, kind string) string {
	if v >= 0 && v < len(table) {
		return table[v].name
	}
	return fmt.Sprintf("%s(%d)", kind, v)
}

// parse returns the value whose name or alias is s, in any case.
func parse[T ~int](table []spelling, s, kind string) (T, error) {
	lower := strings.ToLower(s)
	for v, r := range table {
		if r.name != "" && (lower == r.name || lower == r.alias) {
			return T(v), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q", kind, s)
}

// Name is the algorithm's recorded name: "" for the zero value and alg(N)
// outside the enumeration.
func (a Algorithm) Name() string { return nameOf(algorithmNames[:], int(a), "alg") }

// String is the algorithm's display name, algorithm(N) for a value that
// has none.
func (a Algorithm) String() string {
	if a >= 0 && int(a) < len(algorithmNames) && algorithmNames[a].display != "" {
		return algorithmNames[a].display
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm maps a flag spelling, a recorded name or its alias in any
// case, to one of the four algorithms of the public API.
func ParseAlgorithm(s string) (Algorithm, error) {
	return parse[Algorithm](algorithmNames[:AlgProposeNoVeto], s, "algorithm")
}

// Name is the manager's recorded name, cm(N) outside the enumeration.
func (m CMMode) Name() string { return nameOf(cmNames[:], int(m), "cm") }

// String is the manager's recorded name.
func (m CMMode) String() string { return m.Name() }

// ParseCMMode maps a recorded manager name, in any case, to its mode.
func ParseCMMode(s string) (CMMode, error) { return parse[CMMode](cmNames[:], s, "contention manager") }

// Name is the loss model's recorded name, loss(N) outside the enumeration.
func (m LossMode) Name() string { return nameOf(lossNames[:], int(m), "loss") }

// String is the loss model's recorded name.
func (m LossMode) String() string { return m.Name() }

// ParseLoss maps a flag spelling, a recorded name or its alias in any
// case, to the loss model.
func ParseLoss(s string) (LossMode, error) { return parse[LossMode](lossNames[:], s, "loss model") }
