package replay

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// Selector chooses which recorded trials deserve forensic re-execution.
// The zero value selects nothing; ParseSelector builds one from the
// -flag spec.
type Selector struct {
	// Undecided flags trials in which not every correct process decided.
	Undecided bool
	// Violations flags trials that broke agreement or strong validity —
	// recorded safety violations, the claims most in need of evidence.
	Violations bool
	// TopSlowest flags the k trials with the highest executed round counts
	// (ties broken by trial index).
	TopSlowest int
	// Recheck re-runs EVERY record through a cheap decisions-only execution
	// and flags any whose decision digest does not reproduce — the full
	// audit sweep. Flagged mismatches then get the TraceFull treatment like
	// every other selection.
	Recheck bool
	// Quarantined flags trials recorded with an error — panicked, overrun,
	// or otherwise failed executions. They carry no digest, so they are
	// selectable for inspection (sweepd's flagged endpoint) but not for
	// re-execution.
	Quarantined bool
}

// ParseSelector decodes a comma-separated selector spec ("undecided,
// violations,slowest=3,recheck,quarantined") — the shared syntax of
// sweeprun verify's -flag and sweepd's /jobs/{id}/flagged?flag= query.
func ParseSelector(spec string) (Selector, error) {
	var sel Selector
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		switch {
		case part == "undecided":
			sel.Undecided = true
		case part == "violations":
			sel.Violations = true
		case part == "recheck":
			sel.Recheck = true
		case part == "quarantined":
			sel.Quarantined = true
		case strings.HasPrefix(part, "slowest="):
			k, err := strconv.Atoi(strings.TrimPrefix(part, "slowest="))
			if err != nil || k < 1 {
				return sel, fmt.Errorf("bad selector %q (want slowest=K, K >= 1)", part)
			}
			sel.TopSlowest = k
		case part == "slowest":
			sel.TopSlowest = 1
		default:
			return sel, fmt.Errorf("unknown selector %q (want undecided, violations, slowest[=K], recheck, quarantined)", part)
		}
	}
	return sel, nil
}

// Flagged is one record selected for re-execution, with every reason that
// selected it.
type Flagged struct {
	Rec     sink.Record
	Reasons []string
}

// FlagRecords applies the record-level selectors (everything but Recheck,
// which needs scenarios to re-run). The result is ordered by trial index;
// a record selected by several rules appears once with all its reasons.
func FlagRecords(recs []sink.Record, sel Selector) []Flagged {
	reasons := make(map[int][]string)
	for _, rec := range recs {
		if rec.Err != "" {
			// Errored trials recorded no digest to audit; Quarantined is the
			// one selector that targets them (inspection, not re-execution).
			if sel.Quarantined {
				reasons[rec.Index] = append(reasons[rec.Index], "quarantined")
			}
			continue
		}
		if sel.Undecided && !rec.AllDecided {
			reasons[rec.Index] = append(reasons[rec.Index], "undecided")
		}
		if sel.Violations && (!rec.AgreementOK || !rec.ValidityOK) {
			reasons[rec.Index] = append(reasons[rec.Index], "violation")
		}
	}
	if sel.TopSlowest > 0 {
		byRounds := make([]sink.Record, 0, len(recs))
		for _, rec := range recs {
			if rec.Err == "" {
				byRounds = append(byRounds, rec)
			}
		}
		sort.SliceStable(byRounds, func(i, j int) bool {
			if byRounds[i].Rounds != byRounds[j].Rounds {
				return byRounds[i].Rounds > byRounds[j].Rounds
			}
			return byRounds[i].Index < byRounds[j].Index
		})
		for k := 0; k < sel.TopSlowest && k < len(byRounds); k++ {
			idx := byRounds[k].Index
			reasons[idx] = append(reasons[idx], "slowest")
		}
	}
	var out []Flagged
	for _, rec := range recs {
		if rs := reasons[rec.Index]; len(rs) > 0 {
			out = append(out, Flagged{Rec: rec, Reasons: rs})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rec.Index < out[j].Rec.Index })
	return out
}

// Verification is the outcome of one forensic re-execution: a fresh
// engine.TraceFull run of the recorded seed, audited against the record.
type Verification struct {
	// Index, Name, and Seed identify the trial.
	Index int
	Name  string
	Seed  int64
	// Reasons echoes why the trial was selected.
	Reasons []string
	// DigestOK reports that the fresh run reproduced the recorded decision
	// digest field for field; Mismatch names the first divergence otherwise.
	DigestOK bool
	Mismatch string
	// TraceValid reports that the fresh full trace satisfies the execution
	// legality constraints of Definition 11 (model.Execution.Validate);
	// TraceError carries the violation otherwise.
	TraceValid bool
	TraceError string
	// Rounds is the fresh run's executed round count.
	Rounds int
	// Bundle is the rendered trace bundle: provenance header plus the full
	// per-round execution table. Populated on digest or legality failures,
	// and always when re-execution was asked to bundle.
	Bundle string
}

// OK reports a clean audit: digest reproduced and trace legal.
func (v *Verification) OK() bool { return v.DigestOK && v.TraceValid }

// DigestDiff compares two trial digests field by field and returns the
// first divergence as "field: recorded X, fresh Y" (empty when identical).
// Index and Name are identity, not digest, and are not compared.
func DigestDiff(recorded, fresh sim.Result) string {
	switch {
	case (recorded.Err != nil) != (fresh.Err != nil):
		return fmt.Sprintf("err: recorded %v, fresh %v", recorded.Err, fresh.Err)
	case recorded.Err != nil && recorded.Err.Error() != fresh.Err.Error():
		return fmt.Sprintf("err: recorded %q, fresh %q", recorded.Err, fresh.Err)
	case recorded.Seed != fresh.Seed:
		return fmt.Sprintf("seed: recorded %d, fresh %d", recorded.Seed, fresh.Seed)
	case recorded.Rounds != fresh.Rounds:
		return fmt.Sprintf("rounds: recorded %d, fresh %d", recorded.Rounds, fresh.Rounds)
	case recorded.AllDecided != fresh.AllDecided:
		return fmt.Sprintf("decided: recorded %t, fresh %t", recorded.AllDecided, fresh.AllDecided)
	case recorded.Decisions != fresh.Decisions:
		return fmt.Sprintf("decisions: recorded %d, fresh %d", recorded.Decisions, fresh.Decisions)
	case len(recorded.DecidedValues) != len(fresh.DecidedValues):
		return fmt.Sprintf("values: recorded %v, fresh %v", recorded.DecidedValues, fresh.DecidedValues)
	case recorded.LastDecisionRound != fresh.LastDecisionRound:
		return fmt.Sprintf("lastround: recorded %d, fresh %d", recorded.LastDecisionRound, fresh.LastDecisionRound)
	case recorded.AgreementOK != fresh.AgreementOK:
		return fmt.Sprintf("agreement: recorded %t, fresh %t", recorded.AgreementOK, fresh.AgreementOK)
	case recorded.ValidityOK != fresh.ValidityOK:
		return fmt.Sprintf("validity: recorded %t, fresh %t", recorded.ValidityOK, fresh.ValidityOK)
	case recorded.TerminationOK != fresh.TerminationOK:
		return fmt.Sprintf("termination: recorded %t, fresh %t", recorded.TerminationOK, fresh.TerminationOK)
	}
	for i, v := range recorded.DecidedValues {
		if fresh.DecidedValues[i] != v {
			return fmt.Sprintf("values: recorded %v, fresh %v", recorded.DecidedValues, fresh.DecidedValues)
		}
	}
	return ""
}

// ReExecuteScenario re-runs one recorded trial at full trace fidelity and
// audits it: the scenario is forced to engine.TraceFull, executed, its
// digest compared against the recorded one, and the fresh columnar trace
// validated against the model's legality constraints. The execution's arena
// is released back to the reuse pool before returning (after the bundle, if
// any, is rendered), so verification loops are allocation-free in steady
// state. When bundle is true the trace bundle is rendered unconditionally;
// otherwise only a failed audit carries one.
func ReExecuteScenario(recorded sim.Result, sc sim.Scenario, reasons []string, bundle bool) *Verification {
	v, res := ReExecuteScenarioKeep(recorded, sc, reasons, bundle)
	if res != nil {
		res.Execution.Release()
	}
	return v
}

// ReExecuteScenarioKeep is ReExecuteScenario for callers that want the
// fresh execution afterwards: the audited engine result is returned
// un-released (nil when re-execution itself failed) and the caller owns
// Execution.Release.
func ReExecuteScenarioKeep(recorded sim.Result, sc sim.Scenario, reasons []string, bundle bool) (*Verification, *engine.Result) {
	sc.Trace = engine.TraceFull
	fresh, res := sim.RunTrialFull(recorded.Index, sc)
	v := &Verification{
		Index:   recorded.Index,
		Name:    recorded.Name,
		Seed:    sc.Seed,
		Reasons: reasons,
		Rounds:  fresh.Rounds,
	}
	v.Mismatch = DigestDiff(recorded, fresh)
	v.DigestOK = v.Mismatch == ""
	if res != nil {
		if err := res.Execution.Validate(); err != nil {
			v.TraceError = err.Error()
		} else {
			v.TraceValid = true
		}
		if bundle || !v.OK() {
			v.Bundle = renderBundle(v, res)
		}
	} else if fresh.Err != nil {
		v.TraceError = fmt.Sprintf("re-execution failed: %v", fresh.Err)
	}
	return v, res
}

// BundleText renders the forensic trace bundle for a verification whose
// execution the caller retained (ReExecuteScenarioKeep): the same
// provenance header + per-round table ReExecuteScenario produces, for
// callers — like the public Config.Replay — that own the execution and
// decide later whether to bundle it.
func BundleText(v *Verification, exec *model.Execution) string {
	return renderBundle(v, &engine.Result{Execution: exec})
}

// renderBundle renders the forensic trace bundle: a provenance header
// followed by the full per-round execution table.
func renderBundle(v *Verification, res *engine.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== trace bundle: trial %d", v.Index)
	if v.Name != "" {
		fmt.Fprintf(&b, " (%s)", v.Name)
	}
	fmt.Fprintf(&b, " seed %d ==\n", v.Seed)
	if len(v.Reasons) > 0 {
		fmt.Fprintf(&b, "flagged: %s\n", strings.Join(v.Reasons, ", "))
	}
	fmt.Fprintf(&b, "digest: ok=%t", v.DigestOK)
	if v.Mismatch != "" {
		fmt.Fprintf(&b, " mismatch=%s", v.Mismatch)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "trace : legal=%t", v.TraceError == "")
	if v.TraceError != "" {
		fmt.Fprintf(&b, " violation=%s", v.TraceError)
	}
	b.WriteByte('\n')
	b.WriteString(res.Execution.String())
	return b.String()
}

// VerifyExperiment flags and forensically re-executes one grid experiment's
// merged records: the shard set must pass the full render-side guard suite
// first (completeness, fingerprints, seeds), then every selected trial is
// re-run at TraceFull and audited. Work experiments are not re-executable
// per-record through this path — their outcomes are not engine digests —
// so they are rejected with a pointed error.
func VerifyExperiment(name string, recs []sink.Record, sel Selector, bundle bool) ([]*Verification, error) {
	e, err := experiments.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	g, ok := e.Grid()
	if !ok {
		return nil, fmt.Errorf("replay: %s is a work-item experiment; its outcomes replay through 'replay' (render) and re-run through 'run', not per-seed verification", name)
	}
	scenarios, results, _, err := mergeGrid(g, recs)
	if err != nil {
		return nil, err
	}

	flagged := FlagRecords(recs, sel)
	if sel.Recheck {
		flagged = recheck(flagged, results, scenarios)
	}
	out := make([]*Verification, 0, len(flagged))
	for _, f := range flagged {
		out = append(out, ReExecuteScenario(results[f.Rec.Index], scenarios[f.Rec.Index], f.Reasons, bundle))
	}
	return out, nil
}

// recheck re-runs every recorded trial decisions-only, folding any digest
// mismatch into the flagged set (merging reasons with the record-level
// selections, ordered by index).
func recheck(flagged []Flagged, results []sim.Result, scenarios []sim.Scenario) []Flagged {
	byIndex := make(map[int]int, len(flagged)) // trial index -> position in flagged
	for i, f := range flagged {
		byIndex[f.Rec.Index] = i
	}
	for i := range scenarios {
		sc := scenarios[i]
		sc.Trace = engine.TraceDecisionsOnly
		if diff := DigestDiff(results[i], sim.RunTrial(i, sc)); diff != "" {
			if at, ok := byIndex[i]; ok {
				flagged[at].Reasons = append(flagged[at].Reasons, "digest-mismatch")
			} else {
				flagged = append(flagged, Flagged{
					Rec:     sink.RecordOf("", sink.Params{}, results[i]),
					Reasons: []string{"digest-mismatch"},
				})
				byIndex[i] = len(flagged) - 1
			}
		}
	}
	sort.SliceStable(flagged, func(i, j int) bool { return flagged[i].Rec.Index < flagged[j].Rec.Index })
	return flagged
}
