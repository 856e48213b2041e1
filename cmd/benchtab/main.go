// Command benchtab regenerates every table of EXPERIMENTS.md: the Figure-1
// solvability matrix, the termination-bound measurements for Theorems 1–3
// and §7.3, the executable lower bounds (Theorems 4, 6, 7, 8, 9), the
// ablations and the multihop extension. Run with no arguments for all
// tables, or name experiments (in any case):
//
//	benchtab                # everything
//	benchtab T3 T8 A1       # a subset
//	benchtab -workers 8 T2  # on 8 workers (default GOMAXPROCS)
//
// The tables come in table order from internal/experiments' registry, the
// code the test suite and the bench harness use. Each runs in-process on
// the worker pool, as a scenario grid or a work pipeline; tables are
// byte-identical for any -workers value.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"adhocconsensus/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "worker-pool size for scenario sweeps (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := make(map[string]bool, fs.NArg())
	for _, a := range fs.Args() {
		want[strings.ToUpper(a)] = true
	}
	ran := 0
	failed := 0
	for _, e := range experiments.List() {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		table, err := e.Run(*workers)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Println(table)
		ran++
		if !table.Pass {
			failed++
		}
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches %v (valid: %s)", fs.Args(), experiments.Names())
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed their internal checks", failed)
	}
	return nil
}
