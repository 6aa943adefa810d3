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
// -throughput runs only the E11 delivery-throughput sweep, with
// -throughput-notifs/-throughput-clients/-delivery-shards controlling the
// load shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed = flag.Int64("seed", 2005, "random seed for all experiments")
		only = flag.String("only", "", "comma-separated experiment ids to run (e1,e2,e3,e5,e6,e7,e8,e9,e10,e11,e12,e13,e14,e15,e18); empty = all")

		throughput  = flag.Bool("throughput", false, "run only the delivery-throughput sweep (E11)")
		tpNotifs    = flag.Int("throughput-notifs", 50000, "notifications pushed per throughput mode")
		tpClients   = flag.Int("throughput-clients", 64, "destination clients in the throughput sweep")
		shardsAflag = flag.String("delivery-shards", "1,4,16", "comma-separated shard counts for the throughput sweep")
	)
	flag.Parse()

	shardCounts, err := parseShards(*shardsAflag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alert-bench: %v\n", err)
		return 1
	}
	if *throughput {
		t, err := sim.DeliveryThroughputTable(*tpNotifs, *tpClients, shardCounts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alert-bench: throughput: %v\n", err)
			return 1
		}
		fmt.Println(t.Render())
		return 0
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	type step struct {
		id  string
		run func() (string, error)
	}
	steps := []step{
		{"e1", func() (string, error) {
			t, err := sim.BuildOverheadTable([]int{100, 1000, 5000}, []int{0, 100, 1000, 10000}, 3, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e2", func() (string, error) {
			t, err := sim.GDSScaleTable([]int{10, 50, 100, 250, 1000}, []int{2, 4, 8}, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e3", func() (string, error) {
			t, err := sim.RoutingComparisonTable(64, []float64{0, 0.3, 0.6, 0.9}, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e5", func() (string, error) {
			t, err := sim.AuxChainTable([]int{1, 2, 3, 4, 5}, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e6", func() (string, error) {
			r, err := sim.RunPartitionRecovery(5, *seed)
			if err != nil {
				return "", err
			}
			t := metrics.NewTable("E6 — partition recovery (rebuilds under a cut super/sub link)",
				"cycles", "notifs during cut", "notifs after heal", "peak queue")
			t.AddRow(r.Cycles, r.DuringPartition, r.AfterHeal, r.QueuedPeak)
			return t.Render(), nil
		}},
		{"e7", func() (string, error) {
			t, err := sim.LossTable(24, 10, []float64{0, 0.01, 0.05, 0.1, 0.2}, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e9", func() (string, error) {
			t, err := sim.MulticastAblationTable(32, 10, []int{1, 4, 8, 16, 31}, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e8", func() (string, error) {
			r, err := sim.RunContinuousSearch(2000, *seed)
			if err != nil {
				return "", err
			}
			t := metrics.NewTable("E8 — continuous search & watch-this fidelity",
				"docs", "search hits", "alerted docs", "agreement", "watch alerts", "watch expected")
			t.AddRow(r.Docs, r.SearchHits, r.AlertedDocs, fmt.Sprintf("%v", r.Agreement), r.WatchAlerts, r.WatchExpected)
			return t.Render(), nil
		}},
		{"e10", func() (string, error) {
			t, err := sim.DeliveryRecoveryTable([]int{1, 5, 25, 100}, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e11", func() (string, error) {
			t, err := sim.DeliveryThroughputTable(*tpNotifs, *tpClients, shardCounts)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e12", func() (string, error) {
			t, err := sim.ContentRoutingTable(16, 4, 5, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e13", func() (string, error) {
			t, err := sim.CompositeAlertsTable(16, 4, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e14", func() (string, error) {
			t, err := sim.ReplicaFailoverTable(16, 6, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e15", func() (string, error) {
			t, err := sim.QoSOverloadTable(16, 30, 3, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"e18", func() (string, error) {
			t, err := sim.HealthTable(8, 8, 2, 4, *seed)
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
	}

	for _, s := range steps {
		if !selected(s.id) {
			continue
		}
		out, err := s.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "alert-bench: %s: %v\n", s.id, err)
			return 1
		}
		fmt.Println(out)
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
			return nil, fmt.Errorf("bad -delivery-shards entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-delivery-shards is empty")
	}
	return out, nil
}
