// Command alert-bench runs the experiment suite of docs/EXPERIMENTS.md
// and prints the result tables: build overhead (E1), GDS scalability (E2),
// routing comparison on fragmented networks (E3), auxiliary-profile chains
// (E5), partition recovery (E6), lossy flooding (E7), continuous-search
// fidelity (E8), dissemination ablation (E9), delivery across
// disconnect/reconnect (E10), delivery throughput (E11), the
// content-routing dissemination ladder (E12), composite/temporal alerting
// (E13), replication failover (E14), QoS overload degradation (E15), the
// scale & chaos soak (E16), the self-alerting health plane (E18) and the
// flight recorder under chaos (E19).
// The E4 filter-engine throughput comparison lives in internal/filter's
// benchmarks (go test -bench 'Naive|EqPref' ./internal/filter) and tracing
// overhead (E17) in internal/core's BenchmarkTraceOverhead, not here.
//
// The list of experiments, their parameters and their order is
// sim.Experiments, which internal/sim's golden test fences; this command is
// flag parsing plus a loop over it. An experiment whose acceptance bar
// fails prints its table and exits 1, so `-only e16,e19` is the chaos-soak
// gate; an unknown -only id exits 2 before anything runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/gsalert/gsalert/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	experiments := sim.Experiments()
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	p := sim.DefaultParams()
	fs := flag.NewFlagSet("alert-bench", flag.ContinueOnError)
	fs.Int64Var(&p.Seed, "seed", p.Seed, "random seed for all experiments")
	only := fs.String("only", "", "comma-separated experiment ids to run ("+strings.Join(ids, ",")+"); empty = all")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.ToLower(strings.TrimSpace(id))
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "alert-bench: unknown experiment %q (have %s)\n", id, strings.Join(ids, ","))
				return 2
			}
			want[id] = true
		}
	}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t, err := e.Table(p)
		if t != nil {
			fmt.Fprintln(stdout, t.Render())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "alert-bench: %s: %v\n", e.ID, err)
			return 1
		}
	}
	return 0
}
