// Package cli holds the flag vocabulary and output formatting shared by the
// command-line tools and the daemon (cmd/consensus-sim, cmd/sweeprun,
// cmd/sweepd): the mapping from flag spellings to public Config values, the
// multi-trial summary printer, the per-trial seed-provenance report, and
// RenderGroup, the one renderer of recorded results. Keeping one copy here
// is what makes "sweeprun merge" output byte-comparable with "consensus-sim
// -trials" output for the same configuration, and sweepd's /results
// byte-identical to "sweeprun replay".
package cli

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"adhocconsensus"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// ParseValues parses the comma-separated initial-value list.
func ParseValues(csv string) ([]adhocconsensus.Value, error) {
	var values []adhocconsensus.Value
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		values = append(values, adhocconsensus.Value(v))
	}
	return values, nil
}

// ConfigFlags bundles the shared consensus-configuration flags registered
// on a FlagSet.
type ConfigFlags struct {
	Alg       *string
	Values    *string
	Domain    *uint64
	IDSpace   *uint64
	LossName  *string
	LossP     *float64
	CST       *int
	FPRate    *float64
	Backoff   *bool
	Seed      *int64
	Schedule  *int
	MaxRounds *int
}

// RegisterConfig registers the shared configuration flags with their
// canonical names and defaults.
func RegisterConfig(fs *flag.FlagSet) *ConfigFlags {
	return &ConfigFlags{
		Alg:       fs.String("alg", sim.AlgBitByBit.Name(), algUsage),
		Values:    fs.String("values", "3,7,7,1", "comma-separated initial values, one per process"),
		Domain:    fs.Uint64("domain", 0, "|V| (default: max value + 1)"),
		IDSpace:   fs.Uint64("idspace", 0, "|I| for leaderrelay (default 2^48)"),
		LossName:  fs.String("loss", sim.LossNone.Name(), lossUsage),
		LossP:     fs.Float64("p", 0.3, "loss probability for prob/capture"),
		CST:       fs.Int("cst", 1, "communication stabilization round (ECF, wake-up, accuracy)"),
		FPRate:    fs.Float64("fp", 0, "detector false positive rate before stabilization"),
		Backoff:   fs.Bool("backoff", false, "use the backoff contention manager instead of a pinned wake-up service"),
		Seed:      fs.Int64("seed", 1, "seed for all randomized components"),
		Schedule:  fs.Int("schedule", 1, "seed schedule: 1 (sequential, historical) | 2 (counter-based, order-free)"),
		MaxRounds: fs.Int("rounds", 100000, "maximum rounds to execute"),
	}
}

// The usage texts of -alg and -loss list the flag spellings once, at
// start-up: RegisterConfig runs for every job a daemon plans.
var (
	algUsage  = "algorithm: " + choices(sim.AlgPropose, sim.AlgLeaderRelay)
	lossUsage = "loss model: " + choices(sim.LossNone, sim.LossDrop)
)

// choices lists the recorded names of first..last for a flag's usage.
func choices[T interface {
	~int
	Name() string
}](first, last T) string {
	var names []string
	for v := first; v <= last; v++ {
		names = append(names, v.Name())
	}
	return strings.Join(names, " | ")
}

// Config assembles the public configuration from the parsed flags,
// including the tree-walk no-ECF rule.
func (f *ConfigFlags) Config() (adhocconsensus.Config, error) {
	alg, err := sim.ParseAlgorithm(*f.Alg)
	if err != nil {
		return adhocconsensus.Config{}, err
	}
	values, err := ParseValues(*f.Values)
	if err != nil {
		return adhocconsensus.Config{}, err
	}
	lossMode, err := sim.ParseLoss(*f.LossName)
	if err != nil {
		return adhocconsensus.Config{}, err
	}
	cfg := adhocconsensus.Config{
		Algorithm:         alg,
		Values:            values,
		Domain:            *f.Domain,
		IDSpace:           *f.IDSpace,
		Loss:              lossMode,
		LossP:             *f.LossP,
		ECFRound:          *f.CST,
		Stable:            *f.CST,
		DetectorRace:      *f.CST,
		FalsePositiveRate: *f.FPRate,
		Seed:              *f.Seed,
		SeedSchedule:      *f.Schedule,
		MaxRounds:         *f.MaxRounds,
	}
	if *f.Backoff {
		cfg.Contention = adhocconsensus.ContentionBackoff
	}
	if alg == adhocconsensus.AlgorithmTreeWalk {
		cfg.ECFRound = 0 // the tree walk needs no delivery guarantee
	}
	return cfg, nil
}

// RecordParams renders the configuration as recorded trial parameters. The
// fingerprint that guards merges comes from the library (TrialResult), not
// from these; they make shard files self-describing.
func RecordParams(c adhocconsensus.Config) sink.Params {
	det := ""
	if c.DetectorClass != (adhocconsensus.DetectorClass{}) {
		det = c.DetectorClass.Name
	}
	p := sink.Params{
		Algorithm: c.Algorithm.Name(),
		N:         len(c.Values),
		Domain:    c.Domain,
		IDSpace:   c.IDSpace,
		Detector:  det,
		Race:      c.DetectorRace,
		FPRate:    c.FalsePositiveRate,
		CM:        c.Contention.Name(),
		Stable:    c.Stable,
		Loss:      c.Loss.Name(),
		LossP:     c.LossP,
		ECFRound:  c.ECFRound,
		MaxRounds: c.MaxRounds,
		Trace:     "decisions", // multi-trial runs never record views
		SweepSeed: c.Seed,
	}
	if c.SeedSchedule > 1 {
		p.SeedSchedule = c.SeedSchedule
	}
	return p
}

// PrintTrialStats writes the multi-trial summary block in the format
// consensus-sim -trials has always printed.
func PrintTrialStats(w io.Writer, alg adhocconsensus.Algorithm, processes int, st *adhocconsensus.TrialStats) {
	fmt.Fprintf(w, "algorithm : %v\n", alg)
	fmt.Fprintf(w, "processes : %d\n", processes)
	fmt.Fprintf(w, "trials    : %d\n", st.Trials)
	fmt.Fprintf(w, "decided   : %d/%d\n", st.Decided, st.Trials)
	fmt.Fprintf(w, "rounds    : min=%d med=%g mean=%.4g p95=%g max=%d\n",
		st.MinRounds, st.MedianRounds, st.MeanRounds, st.P95Rounds, st.MaxRounds)
	type valueCount struct {
		value  adhocconsensus.Value
		trials int
	}
	agreements := make([]valueCount, 0, len(st.Agreements))
	for v, n := range st.Agreements {
		agreements = append(agreements, valueCount{v, n})
	}
	sort.Slice(agreements, func(i, j int) bool { return agreements[i].value < agreements[j].value })
	for _, va := range agreements {
		fmt.Fprintf(w, "  agreed on %d in %d trial(s)\n", uint64(va.value), va.trials)
	}
	if st.AgreementViolations > 0 {
		fmt.Fprintf(w, "  AGREEMENT VIOLATED in %d trial(s)\n", st.AgreementViolations)
	}
}

// maxFlagged bounds how many anomalous trials PrintSeedProvenance lists per
// category.
const maxFlagged = 5

// PrintSeedProvenance reports, per trial worth re-examining, the derived
// seed that reproduces it standalone: pass the seed to a single run (drop
// -trials) for a byte-identical execution modulo trace recording. Flagged
// are every undecided trial and every agreement violation (up to 5 each),
// plus the slowest trial as the round-count outlier.
func PrintSeedProvenance(w io.Writer, results []adhocconsensus.TrialResult) {
	if len(results) == 0 {
		return
	}
	fmt.Fprintf(w, "seeds     : trial t ran with seed splitmix64(seed, t); rerun one standalone via -seed <trial seed> (drop -trials)\n")
	slowest := 0
	for i, r := range results {
		if r.Rounds > results[slowest].Rounds {
			slowest = i
		}
	}
	s := results[slowest]
	fmt.Fprintf(w, "  slowest   : trial %d (%d rounds) seed %d\n", s.Trial, s.Rounds, s.Seed)
	undecided, violated := 0, 0
	for _, r := range results {
		if !r.Decided {
			if undecided < maxFlagged {
				fmt.Fprintf(w, "  undecided : trial %d (%d rounds) seed %d\n", r.Trial, r.Rounds, r.Seed)
			}
			undecided++
		}
		if len(r.DecidedValues) > 1 {
			if violated < maxFlagged {
				fmt.Fprintf(w, "  VIOLATION : trial %d decided %v, seed %d\n", r.Trial, r.DecidedValues, r.Seed)
			}
			violated++
		}
	}
	if undecided > maxFlagged {
		fmt.Fprintf(w, "  ... and %d more undecided trial(s)\n", undecided-maxFlagged)
	}
	if violated > maxFlagged {
		fmt.Fprintf(w, "  ... and %d more violating trial(s)\n", violated-maxFlagged)
	}
}
