// Command eiilint runs the project-invariant static analyzer suite over
// this repository: the invariants the engine's experiments depend on —
// deterministic virtual time (E12), byte-identical parallel output (E14),
// the batch validity contract and query-lifetime arena memory (E17),
// catalog-snapshot immutability (E13), no silently dropped transfer
// errors, and the interprocedural concurrency contracts (lock ordering,
// goroutine exits, type-switch exhaustiveness) — checked on every build.
//
// Usage:
//
//	eiilint [-json] [-checks lockorder,...] [packages]
//
// Packages default to ./.... Exit status is 1 when findings exist, 2 on
// load or usage errors. Findings can be waived inline with
// "//lint:ignore <check> <reason>" on or directly above the flagged line;
// waivers that no longer suppress anything are themselves reported as
// stale, and waivers naming a check absent from -list as malformed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON diagnostics")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: eiilint [-json] [-checks c1,c2] [packages]\n\nchecks:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eiilint:", err)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eiilint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eiilint:", err)
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "eiilint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "eiilint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		}
		os.Exit(1)
	}
}
