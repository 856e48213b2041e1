package sim

import "testing"

// TestNameTables pins the configuration vocabulary: the recorded names
// that shard params and their fingerprints carry, the display names
// consensus-sim prints, the flag spellings, and the forms of values
// outside each enumeration.
func TestNameTables(t *testing.T) {
	for _, tc := range []struct {
		a             Algorithm
		name, display string
	}{
		{0, "", "algorithm(0)"},
		{AlgPropose, "propose", "propose-veto (Alg 1)"},
		{AlgBitByBit, "bitbybit", "bit-by-bit (Alg 2)"},
		{AlgTreeWalk, "treewalk", "tree-walk (Alg 3)"},
		{AlgLeaderRelay, "leaderrelay", "leader-relay (§7.3)"},
		{AlgProposeNoVeto, "propose-noveto", "algorithm(5)"},
		{99, "alg(99)", "algorithm(99)"},
	} {
		if got := tc.a.Name(); got != tc.name {
			t.Errorf("Algorithm(%d).Name() = %q, want %q", int(tc.a), got, tc.name)
		}
		if got := tc.a.String(); got != tc.display {
			t.Errorf("Algorithm(%d).String() = %q, want %q", int(tc.a), got, tc.display)
		}
	}
	for m, want := range map[CMMode]string{
		CMAuto: "auto", CMWakeUp: "wakeup", CMLeader: "leader", CMBackoff: "backoff", CMNone: "none", 7: "cm(7)",
	} {
		if m.Name() != want || m.String() != want {
			t.Errorf("CMMode(%d) names %q/%q, want %q", int(m), m.Name(), m.String(), want)
		}
	}
	for m, want := range map[LossMode]string{
		LossNone: "none", LossProbabilistic: "prob", LossCapture: "capture", LossDrop: "drop", -1: "loss(-1)",
	} {
		if m.Name() != want || m.String() != want {
			t.Errorf("LossMode(%d) names %q/%q, want %q", int(m), m.Name(), m.String(), want)
		}
	}
}

// TestParseFlagSpellings: names and aliases parse in any case, every
// recorded name parses back to its value, and the A1 ablation variant is
// no flag value.
func TestParseFlagSpellings(t *testing.T) {
	for s, want := range map[string]Algorithm{
		"propose": AlgPropose, "ALG1": AlgPropose, "bitbybit": AlgBitByBit, "alg2": AlgBitByBit,
		"TreeWalk": AlgTreeWalk, "alg3": AlgTreeWalk, "leaderrelay": AlgLeaderRelay, "nonanon": AlgLeaderRelay,
	} {
		if got, err := ParseAlgorithm(s); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"propose-noveto", "", "alg4", "bogus"} {
		if _, err := ParseAlgorithm(s); err == nil || err.Error() != `unknown algorithm "`+s+`"` {
			t.Errorf("ParseAlgorithm(%q) error %v", s, err)
		}
	}
	for s, want := range map[string]LossMode{
		"none": LossNone, "prob": LossProbabilistic, "Probabilistic": LossProbabilistic, "capture": LossCapture, "DROP": LossDrop,
	} {
		if got, err := ParseLoss(s); err != nil || got != want {
			t.Errorf("ParseLoss(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLoss("bogus"); err == nil || err.Error() != `unknown loss model "bogus"` {
		t.Errorf("ParseLoss(bogus) error %v", err)
	}
	for m := CMAuto; m <= CMNone; m++ {
		if got, err := ParseCMMode(m.Name()); err != nil || got != m {
			t.Errorf("ParseCMMode(%q) = %v, %v", m.Name(), got, err)
		}
	}
	if _, err := ParseCMMode("cm(7)"); err == nil {
		t.Error("ParseCMMode accepted cm(7)")
	}
}
