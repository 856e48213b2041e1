package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSpec decodes a job spec exactly as sweepd's POST /jobs does and
// compiles it as admission does. Nothing may panic; an accepted spec plans
// non-negative segment lengths, which for a sweep sum to at most Trials;
// and every decoded spec's fingerprint survives a JSON round-trip.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"trials":200000,"config":["-alg","bitbybit","-loss","prob","-p","0.4"],"out":"x.jsonl"}`,
		`{"trials":10,"shard":3,"shards":4,"workers":2,"trial_timeout":1000000,"out":"x"}`,
		`{"trials":9223372036854775807,"shards":2,"out":"x"}`,
		`{"trials":10,"shard":5,"shards":9223372036854775807,"out":"x"}`,
		`{"exps":["T3","T9"],"shard":1,"shards":2,"out":"x.jsonl"}`,
		`{"exps":["T9"],"shard":3,"shards":9223372036854775807,"out":"x"}`,
		`{"exps":["all"],"out":"x"}`,
		`{"exps":["T99"],"out":"x"}`,
		`{"trials":5,"config":["-alg","nope"],"out":"x"}`,
		`{"trials":5,"config":["-values","1,2","stray"],"out":"x"}`,
		`{"trials":1,"out":"x","bogus":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		spec.Normalize()
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.Fingerprint() != spec.Fingerprint() {
			t.Fatalf("fingerprint %s became %s through %s", spec.Fingerprint(), back.Fingerprint(), b)
		}
		if spec.Validate() != nil {
			return
		}
		segs, err := BuildSegments(spec)
		if err != nil {
			return
		}
		total := 0
		for _, seg := range segs {
			if seg.Length < 0 {
				t.Fatalf("%+v: segment %s plans %d records", spec, seg.Name, seg.Length)
			}
			total += seg.Length
		}
		if spec.Trials > 0 && (len(segs) != 1 || total > spec.Trials) {
			t.Fatalf("%+v: %d segment(s) plan %d of %d trials", spec, len(segs), total, spec.Trials)
		}
	})
}

// FuzzManifest writes arbitrary bytes as a supervisor's manifest. New must
// never panic, and a manifest it accepts must reload with the same jobs
// after persist rewrites it.
func FuzzManifest(f *testing.F) {
	for _, seed := range []string{
		`{"schema":1,"next_id":3,"jobs":[` +
			`{"id":1,"fingerprint":"a","state":"done","attempts":1,"spec":{"trials":5,"shard":0,"shards":1,"out":"a.jsonl"}},` +
			`{"id":2,"fingerprint":"b","state":"running","attempts":2,"error":"x","exit_code":3,"spec":{"exps":["T3"],"shard":0,"shards":0,"out":"b.jsonl"}},` +
			`{"id":3,"fingerprint":"b","state":"queued","spec":{"exps":["T3"],"shard":0,"shards":1,"out":"b.jsonl"}}]}`,
		`{"schema":1,"next_id":-4,"jobs":[{"id":9,"state":"checkpointed","spec":{}},{"id":9,"state":"canceled","spec":{}}]}`,
		`{"schema":2,"jobs":[]}`,
		`{"schema":1,"jobs":null}`,
		`{"schema":1`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Options{Dir: dir})
		if err != nil {
			return
		}
		jobs := s.Jobs()
		s.persist()
		again, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatalf("persisted manifest does not reload: %v", err)
		}
		if got := again.Jobs(); !reflect.DeepEqual(got, jobs) {
			t.Fatalf("reloaded jobs differ:\n got %+v\nwant %+v", got, jobs)
		}
	})
}
