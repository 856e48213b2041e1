package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestV1ShardGolden pins the bytes of v1 shard files, not only their
// fingerprint. Together the four configurations reach every per-trial
// random source a sweep builds: Probabilistic and Capture loss, the noisy
// detector (-fp), backoff, and leader-relay's random IDs. Any change to a
// v1 draw, its order, or the record encoding changes a hash.
func TestV1ShardGolden(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-trials 500 -seed 5 -loss prob -p 0.3 -cst 8",
			"1b33c43a585ef8e426a3e7818fe910580e1b2d20a302f4d05f13a50f835f80c7"},
		{"-trials 500 -seed 6 -loss capture -p 0.4 -fp 0.2 -cst 5",
			"fe4d1de9a8354fe76c4d994c2bd3d74f02fefb32aec939dd080ba45d35fb8e93"},
		{"-trials 500 -seed 8 -loss prob -p 0.3 -backoff",
			"1a7c63dca403b20e77849ddb079fe5eac9ace9ea609a31b43edad4a4f7ca3e0d"},
		{"-trials 500 -seed 9 -alg leaderrelay -loss prob -p 0.2 -cst 4",
			"381228f1093e09da5c82812a1d8c8f28815269748d2273e379487620715509de"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard.jsonl")
			args := append([]string{"run", "-quiet", "-report", "none"}, strings.Fields(tc.args)...)
			if err := runCLI(append(args, "-o", path), io.Discard); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("v1 shard bytes changed: sha256 %s, recorded shards hash to %s", got, tc.want)
			}
		})
	}
}
