package sink

import (
	"errors"
	"strings"
	"testing"

	"adhocconsensus/internal/model"
	"adhocconsensus/internal/seedstream"
	"adhocconsensus/internal/sim"
)

// goldenV1Params is the T-series trials configuration PR 6's golden shard
// files were recorded under.
var goldenV1Params = Params{
	Algorithm: "bitbybit", N: 4, Domain: 16, Loss: "prob", LossP: 0.4,
	Race: 9, CM: "auto", Stable: 9, ECFRound: 9, MaxRounds: 100000,
	Trace: "decisions", SweepSeed: 11,
}

// TestV1FingerprintGolden pins a v1 fingerprint captured before seed
// schedules were versioned: the schedule field must not perturb any v1
// fingerprint, or every existing recording would stop merging.
func TestV1FingerprintGolden(t *testing.T) {
	const want = "9474bcca98df68b5"
	if got := goldenV1Params.Fingerprint(); got != want {
		t.Fatalf("v1 fingerprint changed: %s, recorded shards carry %s", got, want)
	}
	// An explicit v1 marking hashes identically to the unset zero value.
	p := goldenV1Params
	p.SeedSchedule = 1
	if got := p.Fingerprint(); got != want {
		t.Fatalf("explicit v1 fingerprint %s differs from implicit %s", got, want)
	}
	// The deprecated goroutines tag has no effect on execution but still
	// identifies the recordings made with it.
	gor := goldenV1Params
	gor.Gor = true
	if got, wantGor := gor.Fingerprint(), "954fde2189860638"; got != wantGor {
		t.Fatalf("goroutines-tagged v1 fingerprint changed: %s, recorded shards carry %s", got, wantGor)
	}
}

// TestV2FingerprintDiffers requires the schedule version to separate
// fingerprints: a v2 recording of the same configuration must not merge
// into a v1 sweep.
func TestV2FingerprintDiffers(t *testing.T) {
	p := goldenV1Params
	p.SeedSchedule = 2
	if p.Fingerprint() == goldenV1Params.Fingerprint() {
		t.Fatal("v1 and v2 fingerprints collide")
	}
}

// TestV1RecordJSONHasNoScheduleKey keeps v1 record bytes identical to
// pre-versioning writers: the sched key appears only for v2+.
func TestV1RecordJSONHasNoScheduleKey(t *testing.T) {
	v1 := appendRecord(nil, Record{Schema: Schema, Params: goldenV1Params})
	if strings.Contains(string(v1), "sched") {
		t.Fatalf("v1 record JSON contains a sched key: %s", v1)
	}
	p2 := goldenV1Params
	p2.SeedSchedule = 2
	v2 := appendRecord(nil, Record{Schema: Schema, Params: p2})
	if !strings.Contains(string(v2), `"sched":2`) {
		t.Fatalf("v2 record JSON missing the sched key: %s", v2)
	}
}

// TestParamsOfSeedSchedule covers the scenario translation: unset and v1
// scenarios record no version, v2 records it.
func TestParamsOfSeedSchedule(t *testing.T) {
	base := sim.Scenario{Algorithm: sim.AlgBitByBit, Values: []model.Value{1, 2, 3, 4}}
	if got := ParamsOf(base).SeedSchedule; got != 0 {
		t.Fatalf("unset scenario recorded SeedSchedule %d", got)
	}
	base.SeedSchedule = seedstream.V1
	if got := ParamsOf(base).SeedSchedule; got != 0 {
		t.Fatalf("v1 scenario recorded SeedSchedule %d", got)
	}
	base.SeedSchedule = seedstream.V2
	p := ParamsOf(base)
	if p.SeedSchedule != 2 || p.SeedScheduleVersion() != 2 {
		t.Fatalf("v2 scenario recorded SeedSchedule %d (version %d)", p.SeedSchedule, p.SeedScheduleVersion())
	}
	if ParamsOf(base).SeedScheduleVersion() == ParamsOf(sim.Scenario{}).SeedScheduleVersion() {
		t.Fatal("versions do not distinguish v1 from v2")
	}
}

// TestUniformSeedSchedule covers the merge-side guard: uniform sets pass
// and report their version, mixed sets fail with the typed, positioned
// error.
func TestUniformSeedSchedule(t *testing.T) {
	mk := func(version int) Record {
		p := goldenV1Params
		if version > 1 {
			p.SeedSchedule = version
		}
		return Record{Schema: Schema, Index: 0, Params: p}
	}
	at := func(rec Record, i int) Record { rec.Index = i; return rec }

	if v, err := UniformSeedSchedule(nil); err != nil || v != 1 {
		t.Fatalf("empty set: %d, %v", v, err)
	}
	if v, err := UniformSeedSchedule([]Record{mk(1), at(mk(1), 1)}); err != nil || v != 1 {
		t.Fatalf("uniform v1: %d, %v", v, err)
	}
	if v, err := UniformSeedSchedule([]Record{mk(2), at(mk(2), 1)}); err != nil || v != 2 {
		t.Fatalf("uniform v2: %d, %v", v, err)
	}
	_, err := UniformSeedSchedule([]Record{mk(1), at(mk(2), 7)})
	var mismatch *ScheduleMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("mixed set error %v, want *ScheduleMismatchError", err)
	}
	if mismatch.Index != 7 || mismatch.Got != 2 || mismatch.Want != 1 {
		t.Fatalf("mismatch = %+v, want index 7, got v2, want v1", mismatch)
	}
	for _, frag := range []string{"trial 7", "seed schedule v2", "expected v1"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("message %q missing %q", err.Error(), frag)
		}
	}

	if err := VerifySeedSchedules([]Record{mk(1), at(mk(1), 1)}, 1); err != nil {
		t.Fatalf("uniform v1 vs want 1: %v", err)
	}
	err = VerifySeedSchedules([]Record{mk(1)}, 2)
	if !errors.As(err, &mismatch) || mismatch.Got != 1 || mismatch.Want != 2 {
		t.Fatalf("v1 records vs want 2: %v", err)
	}
}
