package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestV1ShardGolden pins the bytes of v1 shard files, not only their
// fingerprint. Together the configurations reach every per-trial random
// source a sweep builds: Probabilistic and Capture loss, the noisy detector
// (-fp), backoff, and leader-relay's random IDs. Any change to a v1 draw,
// its order, or the record encoding changes a hash. The last three pin the
// other automata: Alg 1, Alg 3 descending a 16-bit tree, and leader-relay
// in its election regime (|I| = 16 < |V|; the default |I| = 2⁴⁸ runs it
// as plain Alg 2).
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
		{"-trials 500 -seed 10 -alg propose -loss prob -p 0.3 -cst 6",
			"de88e8f6382dda23c396cb4d2e502b68c9c98dde894aaadb36eb47590b625ef8"},
		{"-trials 200 -seed 11 -alg treewalk -loss drop -domain 65536 -values 1,9000,30000,65535",
			"1b3213ef49e38896b70d6c88ff92a23abc9e11bcaf69a888d9ebee4f7ed1a028"},
		{"-trials 500 -seed 12 -alg leaderrelay -idspace 16 -domain 65536 -values 1,9000,30000,65535 -loss prob -p 0.3 -cst 8",
			"96b224cd595e615a2fe00f0100564b0e21a154ea16384c20a2eecae60f15ce68"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			checkShardHash(t, strings.Fields(tc.args), tc.want)
		})
	}
}

// TestDenseShardGolden pins shard bytes at the dense sizes: n=256 and n=64
// over 16-bit values, where every receive set grows past the compact
// multiset's 16 distinct messages in early rounds and capture-loss rows are
// wide. The n=4 goldens above never reach either case.
func TestDenseShardGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		args string
		want string
	}{
		{"prob-256", 256, "-trials 8 -seed 11 -domain 65536 -loss prob -p 0.3 -cst 16",
			"91db6a768a37d66f839cc9b1acfc7958c72fb6a74942c815fcd8ad244c6927e6"},
		{"capture-64", 64, "-trials 60 -seed 12 -domain 65536 -loss capture -p 0.3 -cst 16",
			"67ce4bb9688f20f437da8c6d8cd2301fd12daa1aa7b525ea7158d9981197797a"},
		{"prob-256-v2", 256, "-trials 8 -seed 13 -domain 65536 -loss prob -p 0.3 -cst 16 -schedule 2",
			"40f8a976b3b4defe3a9a607284301702ec4e4ef675177bada51dbc1ea652cbb2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkShardHash(t, append(strings.Fields(tc.args), "-values", denseValues(tc.n)), tc.want)
		})
	}
}

// denseValues lists n distinct 16-bit initial values, (i·7919+1) mod 65536.
func denseValues(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = strconv.Itoa((i*7919 + 1) % 65536)
	}
	return strings.Join(vals, ",")
}

// checkShardHash runs `sweeprun run` with args and compares the sha256 of
// the shard it writes against want.
func checkShardHash(t *testing.T, args []string, want string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	args = append([]string{"run", "-quiet", "-report", "none"}, args...)
	if err := runCLI(append(args, "-o", path), io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("shard bytes changed: sha256 %s, recorded shards hash to %s", got, want)
	}
}
