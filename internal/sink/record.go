package sink

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"adhocconsensus/internal/detector"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
	"adhocconsensus/internal/sim"
)

// Schema is the JSONL record schema version. Bump it whenever a field is
// renamed, removed, or changes meaning; readers reject records whose schema
// they do not understand, so shard files produced by incompatible builds
// cannot be silently merged. Adding a new omitempty field is backward
// compatible and does NOT require a bump.
//
// v2 added universal work items: records may carry an item kind plus
// executor parameters (Item, ItemParams) and a canonical outcome digest
// (Out) instead of a scenario digest, which changes what the record's
// fingerprint covers for those records.
const Schema = 2

// Params is the declarative environment of one trial — everything that
// identifies the scenario's configuration except the per-trial seed. It is
// recorded alongside each result so a shard file is self-describing, and it
// is the input to the fingerprint that guards merges.
type Params struct {
	Algorithm string  `json:"alg,omitempty"`
	N         int     `json:"n,omitempty"`
	Domain    uint64  `json:"domain,omitempty"`
	IDSpace   uint64  `json:"idspace,omitempty"`
	Detector  string  `json:"detector,omitempty"`
	Race      int     `json:"race,omitempty"`
	FPRate    float64 `json:"fprate,omitempty"`
	CM        string  `json:"cm,omitempty"`
	Stable    int     `json:"stable,omitempty"`
	Loss      string  `json:"loss,omitempty"`
	LossP     float64 `json:"lossp,omitempty"`
	ECFRound  int     `json:"ecf,omitempty"`
	MaxRounds int     `json:"maxrounds,omitempty"`
	Trace     string  `json:"trace,omitempty"`
	// Gor echoes the deprecated Scenario.UseGoroutines tag. It has no effect
	// on execution, but it stays in the record and its fingerprint so
	// recordings made with it keep merging, resuming, and replaying.
	Gor bool `json:"goroutines,omitempty"`
	// Crashes digests the crash schedule as "p<id>@<round><b|a>" terms,
	// sorted by process, comma-joined ("a" = after-send).
	Crashes string `json:"crashes,omitempty"`
	// SweepSeed is the base seed every trial seed of a configuration sweep
	// derives from (Config.Seed in the public API). Unlike the per-trial
	// seed it IS part of the configuration — two sweeps of the same
	// parameters with different base seeds must not merge — so it joins the
	// fingerprint. Grid experiments leave it zero: their per-scenario
	// seeding is pinned by the grid itself.
	SweepSeed int64 `json:"sweepseed,omitempty"`
	// Bespoke flags factory escape hatches (BuildProc/BuildLoss/
	// BuildBehavior) whose closures cannot be serialized: two scenarios with
	// the same flags and different factories fingerprint identically, so
	// bespoke sweeps must carry the distinction in the scenario Name.
	Bespoke string `json:"bespoke,omitempty"`
	// SeedSchedule is the seed-schedule version the trial's loss adversary
	// drew from (seedstream.V2 and later; 0 means v1, the historical
	// sequential schedule). Two schedules draw different loss patterns from
	// the same seed, so the version joins the fingerprint — but only when
	// >1, keeping every v1 fingerprint byte-identical to recordings made
	// before schedules were versioned.
	SeedSchedule int `json:"sched,omitempty"`
}

// SeedScheduleVersion returns the schedule version the record's trial ran
// under, normalizing the pre-versioning zero value to 1.
func (p Params) SeedScheduleVersion() int {
	if p.SeedSchedule > 1 {
		return p.SeedSchedule
	}
	return 1
}

// crashDigest renders a crash schedule canonically: sorted by process.
func crashDigest(s model.Schedule) string {
	if len(s) == 0 {
		return ""
	}
	ids := make([]model.ProcessID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		c := s[id]
		when := "b"
		if c.Time == model.CrashAfterSend {
			when = "a"
		}
		fmt.Fprintf(&b, "p%d@%d%s", id, c.Round, when)
	}
	return b.String()
}

// ParamsOf extracts the recorded parameters of a scenario. The per-trial
// Seed is deliberately excluded: Params (and its fingerprint) identify the
// CONFIGURATION, while the seed travels in the record itself.
func ParamsOf(s sim.Scenario) Params {
	var bespoke []string
	if s.BuildProc != nil {
		bespoke = append(bespoke, "proc")
	}
	if s.BuildBehavior != nil {
		bespoke = append(bespoke, "behavior")
	}
	if s.BuildLoss != nil {
		bespoke = append(bespoke, "loss")
	}
	trace := "full"
	if s.Trace == engine.TraceDecisionsOnly {
		trace = "decisions"
	}
	det := ""
	if s.Detector != (detector.Class{}) {
		det = s.Detector.Name
	}
	p := Params{
		Algorithm: s.Algorithm.Name(),
		N:         len(s.Values),
		Domain:    s.Domain,
		IDSpace:   s.IDSpace,
		Detector:  det,
		Race:      s.Race,
		FPRate:    s.FalsePositiveRate,
		CM:        s.CM.Name(),
		Stable:    s.Stable,
		Loss:      s.Loss.Name(),
		LossP:     s.LossP,
		ECFRound:  s.ECFRound,
		MaxRounds: s.MaxRounds,
		Trace:     trace,
		Gor:       s.UseGoroutines,
		Crashes:   crashDigest(s.Crashes),
		Bespoke:   strings.Join(bespoke, ","),
	}
	// Record the schedule version only past v1, so v1 Params (and their
	// JSON and fingerprints) stay identical to pre-versioning recordings.
	if v := seedstream.Normalize(s.SeedSchedule); v > seedstream.V1 {
		p.SeedSchedule = v
	}
	return p
}

// Fingerprint hashes the canonical rendering of the parameters into a
// 16-hex-digit string. Two records merge into one sweep only if their
// fingerprints match what the merging side derives for the same index, so
// shard files produced against a different grid (or an incompatible code
// version that changed a default) are rejected instead of silently folded.
func (p Params) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%s|%d|%g|%s|%d|%s|%g|%d|%d|%s|%t|%s|%s|%d",
		p.Algorithm, p.N, p.Domain, p.IDSpace, p.Detector, p.Race, p.FPRate,
		p.CM, p.Stable, p.Loss, p.LossP, p.ECFRound, p.MaxRounds, p.Trace,
		p.Gor, p.Crashes, p.Bespoke, p.SweepSeed)
	// The seed schedule joins the hash only past v1 so that every v1
	// fingerprint stays byte-identical to pre-versioning recordings.
	if p.SeedSchedule > 1 {
		fmt.Fprintf(h, "|sched%d", p.SeedSchedule)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// Record is one JSONL line: the digested outcome of one trial plus enough
// provenance (experiment, fingerprint, global index, seed, parameters) to
// merge shard files deterministically and to re-run the trial standalone.
// The field set mirrors sim.Result — a Record round-trips through Result()
// with no loss.
type Record struct {
	Schema      int    `json:"schema"`
	Exp         string `json:"exp,omitempty"`
	Fingerprint string `json:"fp,omitempty"`
	Index       int    `json:"i"`
	Name        string `json:"name,omitempty"`
	Seed        int64  `json:"seed"`

	Rounds            int      `json:"rounds"`
	AllDecided        bool     `json:"decided"`
	Decisions         int      `json:"decisions"`
	DecidedValues     []uint64 `json:"values,omitempty"`
	LastDecisionRound int      `json:"lastround"`

	AgreementOK   bool `json:"agreement"`
	ValidityOK    bool `json:"validity"`
	TerminationOK bool `json:"termination"`

	Err string `json:"err,omitempty"`

	// Item and ItemParams identify the work item of a bespoke (non-scenario)
	// pipeline trial: the executor kind that ran it and the canonical
	// parameter string it ran with (see WorkItem). Empty for scenario-grid
	// and configuration-sweep trials.
	Item       string `json:"item,omitempty"`
	ItemParams string `json:"itemparams,omitempty"`
	// Out is the canonical outcome digest of a bespoke work item — the
	// executor-defined key=value encoding its renderer folds back into table
	// rows. Empty for scenario trials, whose outcome lives in the digest
	// fields above.
	Out string `json:"out,omitempty"`

	Params Params `json:"params"`
}

// WorkItem is the universal unit of sharded execution: one trial of any
// experiment pipeline, scenario-backed or bespoke. Scenario grids already
// serialize through Params; WorkItem extends the same deterministic
// partition-and-merge machinery to pipelines whose trials are not
// sim.Scenario values (lower-bound enumeration slices, substrate trials,
// multihop floods). An item is pure serializable data — Kind dispatches to a
// registered executor on the running side, Params carries everything the
// executor needs to rebuild the trial, and Index/Seed give it the same
// global-order identity scenario trials have.
type WorkItem struct {
	// Kind names the executor that runs this item (e.g. "theorem6",
	// "multihop-flood"). The merging side rejects kinds it has no executor
	// for.
	Kind string
	// Index is the item's position in the pipeline's full item list; shard
	// files report results under these global indices, exactly like scenario
	// trials.
	Index int
	// Seed drives the item's randomized components (0 for deterministic
	// constructions).
	Seed int64
	// Params is the canonical executor-parameter encoding (an
	// executor-defined deterministic key=value string). Two items with equal
	// Kind and Params describe the same trial up to seed.
	Params string
}

// Fingerprint hashes the item's identity — kind and parameters, not the
// per-item seed, mirroring how scenario fingerprints exclude trial seeds.
// The merging side re-derives every item and rejects records whose
// fingerprints do not match, so shard files produced by a build with a
// different pipeline definition cannot be silently folded.
func (w WorkItem) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "item|%s|%s", w.Kind, w.Params)
	return strconv.FormatUint(h.Sum64(), 16)
}

// RecordOfItem digests one work-item outcome into a record. The item's seed
// travels in the record like a trial seed; kind and params make the shard
// file self-describing and join the fingerprint.
func RecordOfItem(exp string, item WorkItem, out string) Record {
	return Record{
		Schema:      Schema,
		Exp:         exp,
		Fingerprint: item.Fingerprint(),
		Index:       item.Index,
		Seed:        item.Seed,
		Item:        item.Kind,
		ItemParams:  item.Params,
		Out:         out,
	}
}

// RecordOf digests one trial result into a record.
func RecordOf(exp string, p Params, r sim.Result) Record {
	rec := Record{
		Schema:            Schema,
		Exp:               exp,
		Fingerprint:       p.Fingerprint(),
		Index:             r.Index,
		Name:              r.Name,
		Seed:              r.Seed,
		Rounds:            r.Rounds,
		AllDecided:        r.AllDecided,
		Decisions:         r.Decisions,
		LastDecisionRound: r.LastDecisionRound,
		AgreementOK:       r.AgreementOK,
		ValidityOK:        r.ValidityOK,
		TerminationOK:     r.TerminationOK,
		Params:            p,
	}
	if len(r.DecidedValues) > 0 {
		rec.DecidedValues = make([]uint64, len(r.DecidedValues))
		for i, v := range r.DecidedValues {
			rec.DecidedValues[i] = uint64(v)
		}
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

// Result reconstructs the sim.Result this record digested. The
// reconstruction is exact — byte-identical to the in-process Result for
// error-free trials — so merged shard files feed the same renderers and
// aggregators the in-process sweep feeds.
func (rec Record) Result() sim.Result {
	if rec.Err != "" {
		// Mirror sim.RunTrial's error shape: identity plus Err, zero digest
		// (including a nil DecidedValues).
		return sim.Result{
			Index: rec.Index, Name: rec.Name, Seed: rec.Seed,
			Err: fmt.Errorf("%s", rec.Err),
		}
	}
	r := sim.Result{
		Index:             rec.Index,
		Name:              rec.Name,
		Seed:              rec.Seed,
		Rounds:            rec.Rounds,
		AllDecided:        rec.AllDecided,
		Decisions:         rec.Decisions,
		DecidedValues:     make([]model.Value, len(rec.DecidedValues)),
		LastDecisionRound: rec.LastDecisionRound,
		AgreementOK:       rec.AgreementOK,
		ValidityOK:        rec.ValidityOK,
		TerminationOK:     rec.TerminationOK,
	}
	for i, v := range rec.DecidedValues {
		r.DecidedValues[i] = model.Value(v)
	}
	return r
}
