// Command bench is the repository's benchmark: four closed-loop workloads
// over the mediator's public API, each checked against a naive reference
// engine, reporting end-to-end metrics and — in a separate traced pass —
// per-layer metrics measured from outside the engine. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the
// repository root lists them with their bounds.
//
// The driver runs
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output, one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the statement schedule")
	seconds := fs.Int("seconds", 25, "seconds of measurement per pass")
	trace := fs.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics from a traced pass; -1: both")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and compare the two sets against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specs := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		specs = []*workloadSpec{w}
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace one of -1, 0, 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second

	//lint:ignore ctxpropagate benchmark binary root: the one context every query of the run derives from
	ctx := context.Background()

	if *selfcheck {
		return selfCheck(ctx, specs, *seed, budget, stdout, stderr)
	}
	code := 0
	for _, w := range specs {
		res, err := runWorkload(ctx, w, *seed, budget, *trace)
		if err == nil {
			err = res.print(stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d queries failed, first: %s\n",
				w.name, res.Failed, res.Attempted, res.firstFail)
			code = 1
		}
	}
	return code
}

// setupRepeats is how often set-up is timed on either side of the
// measurement.
const setupRepeats = 3

// result is one workload's outcome; its JSON form is the line the driver
// reads.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`

	workload  string
	rounds    []*round
	ordered   []metric
	firstFail string
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// absorb adds the answer checks of a fixture the run is done with.
func (r *result) absorb(fx *fixture) {
	if fx == nil {
		return
	}
	r.Attempted += fx.attempted
	r.Failed += fx.failed
	if r.firstFail == "" {
		r.firstFail = fx.firstFail
	}
}

func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s: %d queries, %d failed; qps of its %d rounds:", r.workload, r.Attempted, r.Failed, len(r.rounds))
	for _, rd := range r.rounds {
		fmt.Fprintf(w, " %.4g", rd.qps())
	}
	fmt.Fprintln(w)
	for _, m := range r.ordered {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload sets the workload up and measures it for budget; when the
// per-layer metrics are wanted it measures for budget again, recording
// spans in every second round.
func runWorkload(ctx context.Context, w *workloadSpec, seed int64, budget time.Duration, trace int) (*result, error) {
	wantE2E, wantLayers := trace != 1, trace != 0

	// Set-up is timed six times, three before the measurement and three
	// after it, so that one slow phase of the machine does not cover them
	// all, and each at the next stack depth, as rounds are; the third
	// fixture is the one measured. A traced-only run reports no set-up time
	// and sets up once.
	repeats := 1
	if wantE2E {
		repeats = setupRepeats
	}
	res := &result{workload: w.name}
	var setups []setupStats
	timedSetUp := func() (f *fixture, err error) {
		var st setupStats
		atStackDepth(len(setups)%stackDepths, func() { f, st, err = setUp(ctx, w, seed) })
		setups = append(setups, st)
		return f, err
	}
	var fx *fixture
	for i := 0; i < repeats; i++ {
		res.absorb(fx)
		fx = nil // garbage before the next set-up measures its heap
		var err error
		if fx, err = timedSetUp(); err != nil {
			return nil, err
		}
	}

	if wantE2E {
		timed, _, err := fx.runRounds(budget, false)
		if err != nil {
			return nil, err
		}
		for i := 0; i < repeats; i++ {
			f, err := timedSetUp()
			if err != nil {
				return nil, err
			}
			res.absorb(f)
		}
		res.rounds = timed
		res.ordered = endToEnd(timed, setups)
	}
	if wantLayers {
		before := fx.counters()
		plain, traced, err := fx.runRounds(budget, true)
		if err != nil {
			return nil, err
		}
		after := fx.counters()
		fe, err := fx.replayFrontEnd(w.round(fx))
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, plain...)
		res.ordered = append(res.ordered, perLayer(plain, traced, before, after, fx.rec.totals(), fe)...)
		if err := fx.rec.write(filepath.Join("bench", "out", "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}

	res.absorb(fx)
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]jsonValue, len(res.ordered))
	for _, m := range res.ordered {
		res.Metrics[m.name] = jsonValue{m.value, m.unit}
	}
	return res, nil
}

// benchmarkFile is the part of BENCHMARK.json the self-check and the
// package test read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// selfCheck runs two full sets of the same binary — all workloads, then
// all workloads again — and fails if any end-to-end metric differs between
// the sets by more than its bound. It is the benchmark's test of itself:
// a bound tighter than same-code noise would reject innocent changes.
func selfCheck(ctx context.Context, specs []*workloadSpec, seed int64, budget time.Duration, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: -selfcheck runs from the repository root: %v\n", err)
		return 2
	}
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = make(map[string]*result)
		for _, w := range specs {
			res, err := runWorkload(ctx, w, seed, budget, 0)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "bench: %s: %d queries failed, first: %s\n", w.name, res.Failed, res.firstFail)
				return 1
			}
			sets[i][w.name] = res
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-18s %-20s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range specs {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][w.name].Metrics[m.Name].Value, sets[1][w.name].Metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if diff > m.Bound {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Fprintf(stdout, "%-18s %-20s %14.4f %14.4f %7.2f%% %5.0f%%%s\n",
				w.name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
