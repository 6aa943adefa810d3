// Command loadgen drives the E16 scale-and-chaos soak outside the test
// suite: a zipfian subscriber population (100k–1M profiles, mixed
// primitive/composite, QoS-classed) is spread across a simulated
// deployment, rounds of zipf-topic events are published, and a chaos
// schedule — primary kills, directory-subtree partitions, lagging
// standbys, mode flips, transport fault injection — runs against the
// workload. The run repeats failure-free as a baseline; the PR 4/5
// invariants are checked against the composition and per-class delivery
// latency is evaluated against SLOs.
//
// The schedule comes from -schedule (a file in the docs/CHAOS.md text
// format), or is generated from -gen-seed; with neither, the canonical
// default schedule runs. -json writes a machine-readable summary, one row
// per seed (name/iterations/ns_per_op/metrics), which CI uploads as the
// soak artifact:
//
//	go run ./cmd/loadgen -profiles 100000 -seeds 1,7,42 -json soak.json
//
// A failed invariant check exits non-zero: CI runs this as the chaos-soak
// gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"github.com/gsalert/gsalert/internal/chaos"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/sim"
)

// benchResult and benchFile are the -json summary: one row per soak run,
// wall time as ns_per_op, observations as named metrics.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type benchFile struct {
	Goos       string        `json:"goos,omitempty"`
	Goarch     string        `json:"goarch,omitempty"`
	Pkg        string        `json:"pkg,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seeds       = flag.String("seeds", "1", "comma-separated run seeds (one soak per seed)")
		servers     = flag.Int("servers", 16, "alerting servers in the simulated deployment")
		rounds      = flag.Int("rounds", 12, "publish rounds")
		events      = flag.Int("events", 4, "events published per round")
		burst       = flag.Int("burst", 8, "per-subscriber burst-only quota on the observed servers")
		profiles    = flag.Int("profiles", 100_000, "live subscriber profiles (zipfian population)")
		topics      = flag.Int("topics", 500, "topic vocabulary size")
		zipfS       = flag.Float64("zipf-s", 1.07, "zipf skew (> 1)")
		composite   = flag.Float64("composite", 0.02, "fraction of the population registered as DIGEST composites")
		schedFile   = flag.String("schedule", "", "chaos schedule file (docs/CHAOS.md format); empty = canonical default")
		traceSample = flag.Float64("trace-sample", 0, "head-sampling rate in (0,1] for end-to-end event traces; emits the per-stage latency attribution table (docs/TRACING.md); 0 disables")
		genSeed     = flag.Int64("gen-seed", 0, "generate a random valid schedule from this seed instead")
		jsonOut     = flag.String("json", "", "write a JSON summary (one row per seed: wall time plus the observations as named metrics) to this file")
		healthLog   = flag.String("health-log", "", "attach the health plane (docs/HEALTH.md) to the soak's QoS server, write every state transition to this file as JSON lines, and fail the run unless at least one fire→clear cycle was observed")
		flightOut   = flag.String("flight", "", "run the E19 flight-recorder gate instead of the plain soak: the logging plane and tracing are armed, the kill-primary fault must auto-capture exactly one byte-deterministic post-mortem bundle, and the bundle is written to this file (docs/LOGGING.md; multi-seed runs suffix .seed<N>)")
		quiet       = flag.Bool("q", false, "suppress the result tables (summary lines only)")
	)
	flag.Parse()

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}

	out := benchFile{
		Goos:   runtime.GOOS,
		Goarch: runtime.GOARCH,
		Pkg:    "github.com/gsalert/gsalert/cmd/loadgen",
	}
	failed := 0
	for _, seed := range seedList {
		cfg := sim.DefaultChaosSoakConfig(seed)
		cfg.Servers = *servers
		cfg.Rounds = *rounds
		cfg.EventsPerRound = *events
		cfg.Burst = *burst
		cfg.Load.Profiles = *profiles
		cfg.Load.Topics = *topics
		cfg.Load.ZipfS = *zipfS
		cfg.Load.CompositeFraction = *composite
		cfg.TraceSample = *traceSample
		cfg.Health = *healthLog != ""
		switch {
		case *schedFile != "":
			src, err := os.ReadFile(*schedFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				return 2
			}
			s, err := chaos.ParseSchedule(string(src))
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", *schedFile, err)
				return 2
			}
			cfg.Schedule = s
		case *genSeed != 0:
			s, err := chaos.Generate(chaos.GenConfig{
				Seed: *genSeed, Rounds: cfg.Rounds, Primary: sim.SoakReplServer,
				LinkA: "gds0", LinkB: "gds3", InjectTypePrefix: "gs.",
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				return 2
			}
			cfg.Schedule = s
		default:
			cfg.Schedule = sim.DefaultSoakSchedule(cfg.Rounds, "gds3")
		}

		if *flightOut != "" {
			// E19: the soak replays under its own seed and the auto-captured
			// bundle must be a pure function of it — RunFlightSoak runs the
			// deployment twice and compares bundles byte-for-byte.
			fr, err := sim.RunFlightSoak(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: seed %d: %v\n", seed, err)
				return 1
			}
			if !*quiet {
				fmt.Println(sim.FlightSoakTable(fr).Render())
			}
			verdict := "PASS"
			if err := fr.Check(); err != nil {
				verdict = "FAIL"
				failed++
				fmt.Fprintf(os.Stderr, "loadgen: seed %d: %v\n", seed, err)
			}
			path := *flightOut
			if len(seedList) > 1 {
				path = fmt.Sprintf("%s.seed%d", *flightOut, seed)
			}
			if err := os.WriteFile(path, fr.Bundle, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				return 1
			}
			fmt.Printf("loadgen: seed %d: %s — flight bundle %d records / %d components / %d traces → %s\n",
				seed, verdict, fr.DumpRecords, len(fr.DumpComponents), fr.RetainedTraces, path)
			out.Benchmarks = append(out.Benchmarks, toFlightBench(seed, fr))
			continue
		}

		r, err := sim.RunChaosSoak(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: seed %d: %v\n", seed, err)
			return 1
		}
		if !*quiet {
			fmt.Println(sim.ChaosSoakTable(r).Render())
			if len(r.Attribution) > 0 {
				fmt.Println(sim.AttributionTable(r.Attribution).Render())
			}
		}
		verdict := "PASS"
		if err := r.Check(); err != nil {
			verdict = "FAIL"
			failed++
			fmt.Fprintf(os.Stderr, "loadgen: seed %d: %v\n", seed, err)
		}
		if *healthLog != "" {
			if err := appendHealthLog(*healthLog, seed, r); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				return 1
			}
			// The chaos-soak gate: the health plane must complete at least
			// one fire→clear cycle during the soak, or the rules (or the
			// engine) stopped observing the pipeline.
			if r.HealthCycles < 1 {
				verdict = "FAIL"
				failed++
				fmt.Fprintf(os.Stderr, "loadgen: seed %d: health plane observed %d transitions but no fire→clear cycle\n",
					seed, len(r.HealthTransitions))
			} else {
				fmt.Printf("loadgen: seed %d: health %d transitions, %d fire→clear cycle(s) → %s\n",
					seed, len(r.HealthTransitions), r.HealthCycles, *healthLog)
			}
		}
		fmt.Printf("loadgen: seed %d: %s — %d profiles, %d events, %d faults, %d msgs, chaos %v / baseline %v\n",
			seed, verdict, r.LiveProfiles, r.Events, len(r.Applied),
			r.Messages, r.Wall.Round(1e6), r.Baseline.Wall.Round(1e6))
		out.Benchmarks = append(out.Benchmarks, toBench(seed, r))
	}

	if *jsonOut != "" {
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		fmt.Printf("loadgen: wrote %d run(s) to %s\n", len(out.Benchmarks), *jsonOut)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d of %d soak run(s) failed the invariant check\n", failed, len(seedList))
		return 1
	}
	return 0
}

// toBench flattens one soak result into a summary row: wall time as
// ns/op, the invariant observations and per-class latency quantiles as
// custom metrics.
func toBench(seed int64, r *sim.ChaosSoakResult) benchResult {
	m := map[string]float64{
		"live_profiles":  float64(r.LiveProfiles),
		"events":         float64(r.Events),
		"faults":         float64(len(r.Applied)),
		"msgs":           float64(r.Messages),
		"blocked":        float64(r.Blocked),
		"injected_drops": float64(r.InjectedDrops),
		"inherited":      float64(r.Inherited),
		"resyncs":        float64(r.Resyncs),
		"dropped":        float64(r.PipelineDropped),
	}
	for _, s := range r.SLO {
		m[s.Class+"_p50_ms"] = float64(s.P50.Microseconds()) / 1e3
		m[s.Class+"_p99_ms"] = float64(s.P99.Microseconds()) / 1e3
	}
	// Traced runs add the attribution table: per class, the traced e2e p99
	// and each stage's share of the class's end-to-end latency.
	if len(r.HealthTransitions) > 0 {
		m["health_transitions"] = float64(len(r.HealthTransitions))
		m["health_cycles"] = float64(r.HealthCycles)
	}
	for _, a := range r.Attribution {
		m["attr_"+a.Class+"_chains"] = float64(a.Samples)
		m["attr_"+a.Class+"_e2e_p99_ms"] = float64(a.E2EP99.Microseconds()) / 1e3
		m["attr_"+a.Class+"_sum_err"] = a.SumError()
		for stage, share := range a.Share {
			m["attr_"+a.Class+"_"+stage+"_share"] = share
		}
	}
	return benchResult{
		Name:       fmt.Sprintf("SoakChaos/seed=%d", seed),
		Iterations: 1,
		NsPerOp:    float64(r.Wall.Nanoseconds()),
		Metrics:    m,
	}
}

// toFlightBench flattens one E19 run into a summary row.
func toFlightBench(seed int64, r *sim.FlightSoakResult) benchResult {
	deterministic := 0.0
	if r.Deterministic {
		deterministic = 1
	}
	return benchResult{
		Name:       fmt.Sprintf("SoakFlight/seed=%d", seed),
		Iterations: 1,
		NsPerOp:    float64(r.Wall.Nanoseconds()),
		Metrics: map[string]float64{
			"live_profiles":        float64(r.LiveProfiles),
			"events":               float64(r.Events),
			"critical_transitions": float64(r.CriticalTransitions),
			"bundle_bytes":         float64(r.BundleBytes),
			"dump_records":         float64(r.DumpRecords),
			"dump_components":      float64(len(r.DumpComponents)),
			"traced_records":       float64(r.TracedRecords),
			"resolved_records":     float64(r.ResolvedRecords),
			"retained_traces":      float64(r.RetainedTraces),
			"deterministic":        deterministic,
		},
	}
}

// appendHealthLog writes one JSON line per health state transition (plus
// the seed it came from), appending so multi-seed runs share one artifact.
func appendHealthLog(path string, seed int64, r *sim.ChaosSoakResult) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	enc := json.NewEncoder(f)
	for _, tr := range r.HealthTransitions {
		if err := enc.Encode(struct {
			Seed int64 `json:"seed"`
			health.Transition
		}{seed, tr}); err != nil {
			return err
		}
	}
	return nil
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds in %q", s)
	}
	return out, nil
}
