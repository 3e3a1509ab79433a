// Command eiibench runs the paper-reproduction experiments (E1..E11 in
// DESIGN.md) and prints one table per claim.
//
// Usage:
//
//	eiibench [-scale quick|full] [-only E1,E5,...]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	onlyFlag := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	flag.Parse()

	scale := experiments.Quick
	switch strings.ToLower(*scaleFlag) {
	case "quick":
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "eiibench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	only := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			only[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	tables, err := experiments.All(context.Background(), scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eiibench: %v\n", err)
		os.Exit(1)
	}
	printed := 0
	for _, t := range tables {
		if len(only) > 0 && !only[t.ID] {
			continue
		}
		fmt.Println(t.Render())
		printed++
	}
	if printed == 0 {
		fmt.Fprintf(os.Stderr, "eiibench: no experiments matched %q\n", *onlyFlag)
		os.Exit(2)
	}
}
