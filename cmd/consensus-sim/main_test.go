package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	if err := run(nil, io.Discard); err != nil {
		t.Fatalf("default run failed: %v", err)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	tests := [][]string{
		{"-alg", "propose", "-values", "5,9"},
		{"-alg", "bitbybit", "-values", "5,9", "-domain", "16"},
		{"-alg", "treewalk", "-values", "5,9", "-domain", "16", "-loss", "drop"},
		{"-alg", "leaderrelay", "-values", "5,9", "-domain", "1048576", "-idspace", "16"},
	}
	for _, args := range tests {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunFlagVariants(t *testing.T) {
	tests := [][]string{
		{"-values", "1,2", "-loss", "prob", "-p", "0.3", "-cst", "8", "-seed", "3"},
		{"-values", "1,2", "-loss", "capture", "-fp", "0.2", "-cst", "8"},
		{"-values", "1,2", "-backoff", "-rounds", "5000"},
		{"-values", "1,2", "-trace"},
		{"-values", "1,2", "-json"},
		{"-values", "3,7,7,1", "-loss", "prob", "-p", "0.4", "-trials", "20"},
		{"-values", "3,7,7,1", "-trials", "8", "-parallel", "2"},
	}
	for _, args := range tests {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"unknown algorithm", []string{"-alg", "paxos"}},
		{"unknown loss", []string{"-loss", "wormhole"}},
		{"bad value", []string{"-values", "1,x"}},
		{"trace needs single run", []string{"-values", "1,2", "-trials", "5", "-trace"}},
		{"json needs single run", []string{"-values", "1,2", "-trials", "5", "-json"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, io.Discard); err == nil {
				t.Fatal("bad input accepted")
			}
		})
	}
}

// TestTrialsSeedProvenance is the re-runnability contract of the -trials
// summary: the report names the slowest trial's derived seed, and a single
// run with exactly that seed reproduces the trial's round count.
func TestTrialsSeedProvenance(t *testing.T) {
	var buf strings.Builder
	args := []string{"-alg", "bitbybit", "-values", "3,7,7,1", "-domain", "16",
		"-loss", "prob", "-p", "0.4", "-trials", "25", "-seed", "7"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "seeds     :") {
		t.Fatalf("no seed-provenance block in:\n%s", out)
	}
	var trial, rounds int
	var seed int64
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "slowest") {
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "slowest   : trial %d (%d rounds) seed %d",
				&trial, &rounds, &seed); err != nil {
				t.Fatalf("unparseable slowest line %q: %v", line, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no slowest line in:\n%s", out)
	}

	// Re-run the flagged trial standalone with its derived seed: same
	// environment flags, the trial seed, no -trials.
	buf.Reset()
	single := []string{"-alg", "bitbybit", "-values", "3,7,7,1", "-domain", "16",
		"-loss", "prob", "-p", "0.4", "-seed", strconv.FormatInt(seed, 10)}
	if err := run(single, &buf); err != nil {
		t.Fatal(err)
	}
	want := "rounds    : " + strconv.Itoa(rounds) + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("standalone re-run of trial %d did not reproduce %d rounds:\n%s", trial, rounds, buf.String())
	}
}
