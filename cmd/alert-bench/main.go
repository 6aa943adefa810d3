// Command alert-bench runs the experiment suite of docs/EXPERIMENTS.md
// and prints the result tables: build overhead (E1), GDS scalability (E2),
// routing comparison on fragmented networks (E3), auxiliary-profile chains
// (E5), partition recovery (E6), lossy flooding (E7), continuous-search
// fidelity (E8), dissemination ablation (E9), delivery across
// disconnect/reconnect (E10), delivery throughput (E11), the
// content-routing dissemination ladder (E12), composite/temporal alerting
// (E13), replication failover (E14), QoS overload degradation (E15) and
// the self-alerting health plane (E18).
// The E4 filter-engine throughput comparison lives in internal/filter's
// benchmarks (go test -bench 'Naive|EqPref' ./internal/filter); the scale &
// chaos soak (E16) and the flight recorder under chaos (E19) run from
// cmd/loadgen and the internal/sim tests (make chaos), and tracing overhead
// (E17) from internal/core's BenchmarkTraceOverhead, not from here.
//
// The list of experiments, their parameters and their order is
// sim.Experiments, which internal/sim's golden test fences; this command is
// flag parsing plus a loop over it. -throughput-notifs, -throughput-clients
// and -delivery-shards shape E11's load (run it alone with -only e11).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/gsalert/gsalert/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	experiments := sim.Experiments()
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	p := sim.DefaultParams()
	flag.Int64Var(&p.Seed, "seed", p.Seed, "random seed for all experiments")
	only := flag.String("only", "", "comma-separated experiment ids to run ("+strings.Join(ids, ",")+"); empty = all")
	flag.IntVar(&p.ThroughputNotifs, "throughput-notifs", p.ThroughputNotifs, "notifications pushed per E11 mode")
	flag.IntVar(&p.ThroughputClients, "throughput-clients", p.ThroughputClients, "destination clients in E11")
	flag.Func("delivery-shards", "comma-separated shard counts for E11 (default 1,4,16)", func(s string) (err error) {
		p.ThroughputShards, err = parseShards(s)
		return err
	})
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t, err := e.Table(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alert-bench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Println(t.Render())
	}
	return 0
}

// parseShards parses a comma-separated shard-count list.
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
