// Command gsbench is gsalert's end-to-end benchmark: four workloads, each a
// deployment assembled in-process from the constructors cmd/gs-server and
// cmd/gds-server use, over real loopback HTTP wherever the workload has a
// wire, driven by a seeded generator that also knows what must be delivered.
//
//	go run -C bench ./gsbench -workload all -seed 1            # end-to-end metrics
//	go run -C bench ./gsbench -workload wire_flood -trace 1    # per-layer ledger
//	go run -C bench ./gsbench -repeat-check                    # two suites, compared
//
// Every metric is printed as `workload metric value unit`; the last line of
// a single-workload run is the JSON object BENCHMARK.json's contract names.
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	out         string
	repeatCheck bool
	scale       float64 // population scale; 0 means 1. Only the smoke test sets it.
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 24, "measured seconds per run (BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, decorators absent; 1: traced run, per-layer metrics; with -workload all, 1 runs both")
	fs.StringVar(&o.out, "out", "out", "directory for trace-<workload>.jsonl")
	fs.BoolVar(&o.repeatCheck, "repeat-check", false, "run the suite twice and check every end-to-end metric agrees within its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "gsbench: -seconds must be positive, -trace 0 or 1")
		return 2
	}
	// One workload runs in the mode -trace names; all of them run end to end
	// and, with -trace 1, traced as well.
	specs, modes := workloads, []bool{false, true}[:1+o.trace]
	if o.workload != "all" {
		sp, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintf(stderr, "gsbench: %v\n", err)
			return 2
		}
		specs, modes = []spec{sp}, []bool{o.trace == 1}
	}
	fmt.Fprintf(stdout, "# gsbench seed=%d seconds=%g cores=%d GOMAXPROCS=%d %s\n",
		o.seed, o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	if o.repeatCheck {
		return repeatCheck(o, stdout, stderr)
	}
	started := time.Now()
	code := 0
	for _, sp := range specs {
		for _, traced := range modes {
			res, err := runOne(o, sp, traced, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "gsbench: %s: %v\n", sp.name, err)
				return 1
			}
			if !res.correct() {
				code = 1
			}
		}
	}
	if len(specs) > 1 {
		fmt.Fprintf(stdout, "# total wall time %.1f s\n", time.Since(started).Seconds())
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, sp := range workloads {
		names = append(names, sp.name)
	}
	return names
}

// runOne runs one workload once and prints its metrics and result line.
func runOne(o options, sp spec, traced bool, stdout io.Writer) (*result, error) {
	if o.scale == 0 {
		o.scale = 1
	}
	cfg := runConfig{
		sp:      sp.scaled(o.scale),
		seed:    o.seed,
		seconds: o.seconds,
		trace:   traced,
		outDir:  o.out,
		setups:  3,
		reps:    3,
		log:     stdout,
	}
	if o.scale < 1 {
		cfg.setups = 1
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	printResult(stdout, res)
	return res, nil
}

func printResult(w io.Writer, res *result) {
	for _, m := range append(res.metrics[:len(res.metrics):len(res.metrics)], res.unbounded...) {
		line := fmt.Sprintf("%s %s %.6g %s", res.workload, m.name, m.value, m.unit)
		if m.note != "" {
			line += "  # " + m.note
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "# %s FAILED: %s\n", res.workload, p)
	}
	share := 0.0
	if res.attempted > 0 {
		share = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "# %s failed_share %.6g (%d of %d), wall %.1f s", res.workload, share, res.failed, res.attempted, res.wall.Seconds())
	if res.tracePath != "" {
		fmt.Fprintf(w, ", spans in %s", res.tracePath)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, resultJSON(res))
}

// resultJSON renders the contract's result object. A run that delivered
// everything but broke another check (an unsustainable rate, a standby that
// diverged) is not correct either.
func resultJSON(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.correct(),
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(res.metrics)),
	}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(raw)
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadBenchmarkFile finds BENCHMARK.json at the repository root, whether the
// program runs from the root, from bench/ (go run -C bench) or from the
// package directory (go test).
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, dir := range []string{".", "..", filepath.Join("..", "..")} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &bf, nil
	}
	return nil, firstErr
}

// repeatCheck runs the end-to-end suite twice back to back and reports, per
// workload and metric, both values and whether they agree within the metric's
// bound, in either direction. A metric one of the suites did not report
// disagrees.
func repeatCheck(o options, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintf(stderr, "gsbench: %v\n", err)
		return 1
	}
	var suites [2]map[string]map[string]float64
	code := 0
	for i := range suites {
		suites[i] = make(map[string]map[string]float64)
		for _, sp := range workloads {
			res, err := runOne(o, sp, false, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "gsbench: %s: %v\n", sp.name, err)
				return 1
			}
			if !res.correct() {
				code = 1
			}
			vals := make(map[string]float64)
			for _, m := range res.metrics {
				vals[m.name] = m.value
			}
			suites[i][sp.name] = vals
		}
	}
	for _, sp := range workloads {
		for _, m := range bf.EndToEnd {
			a, okA := suites[0][sp.name][m.Name]
			b, okB := suites[1][sp.name][m.Name]
			verdict := "agree"
			if !okA || !okB || a == 0 || math.Abs(b-a)/a > m.Bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Fprintf(stdout, "repeat-check %s %s %.6g %.6g %s change %+.3f bound %.2f %s\n",
				sp.name, m.Name, a, b, m.Unit, (b-a)/a, m.Bound, verdict)
		}
	}
	return code
}
