// Command eiibench runs the paper-reproduction experiments (the E<n>
// tables of DESIGN.md §4, listed by experiments.IDs) and prints one table
// per claim.
//
// Usage:
//
//	eiibench [-scale quick|full] [-only E1,E5,...]
//
// -only selects experiments before anything runs; an unknown ID is a usage
// error that lists the valid ones.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, runs the selected
// experiments and returns the exit status (1 when an experiment fails, 2 on
// a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("eiibench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	scaleFlag := flags.String("scale", "quick", "experiment scale: quick or full")
	onlyFlag := flags.String("only", "", "comma-separated experiment IDs to run (default: all)")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	scale := experiments.Quick
	switch strings.ToLower(*scaleFlag) {
	case "quick":
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(stderr, "eiibench: unknown scale %q (want quick or full)\n", *scaleFlag)
		return 2
	}

	var only []string
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			only = append(only, strings.ToUpper(strings.TrimSpace(id)))
		}
	}

	tables, err := experiments.Run(context.Background(), scale, only...)
	for _, t := range tables {
		fmt.Fprintln(stdout, t.Render())
	}
	if err != nil {
		fmt.Fprintf(stderr, "eiibench: %v\n", err)
		if errors.Is(err, experiments.ErrUnknown) {
			return 2
		}
		return 1
	}
	return 0
}
