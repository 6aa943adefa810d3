package sim

import (
	"fmt"

	"github.com/gsalert/gsalert/internal/metrics"
)

// Params are what the experiments take from outside: cmd/alert-bench's
// -seed, and E2's size list, which the golden test trims.
type Params struct {
	// Seed seeds every seeded experiment.
	Seed int64
	// GDSSizes are E2's server counts.
	GDSSizes []int
}

// DefaultParams are alert-bench's defaults.
func DefaultParams() Params {
	return Params{
		Seed:     2005,
		GDSSizes: []int{10, 50, 100, 250, 1000},
	}
}

// Experiment is one table of docs/EXPERIMENTS.md as alert-bench prints it.
type Experiment struct {
	ID string
	// Table runs the experiment at alert-bench's parameters. An experiment
	// that checks an acceptance bar returns its table together with the
	// error of a failed check.
	Table func(Params) (*metrics.Table, error)
	// Masked names the columns whose values vary between runs of one
	// binary; testdata/tables.golden records them as "~".
	Masked []string
	// Unfenced keeps a table out of testdata/tables.golden.
	Unfenced bool
}

// Experiments is the list of record: what alert-bench prints, in its order,
// and — Unfenced entries aside — what testdata/tables.golden fences. (E4
// lives in internal/filter's benchmarks and E17 in internal/core's
// BenchmarkTraceOverhead.)
func Experiments() []Experiment {
	return []Experiment{
		{ID: "e1", Unfenced: true, // wall-clock build and filter times
			Table: func(p Params) (*metrics.Table, error) {
				return BuildOverheadTable([]int{100, 1000, 5000}, []int{0, 100, 1000, 10000}, 3, p.Seed)
			}},
		{ID: "e2", Table: func(p Params) (*metrics.Table, error) {
			return GDSScaleTable(p.GDSSizes, []int{2, 4, 8}, p.Seed)
		}},
		{ID: "e3", Table: func(p Params) (*metrics.Table, error) {
			return RoutingComparisonTable(64, []float64{0, 0.3, 0.6, 0.9}, p.Seed)
		}},
		{ID: "e5", Table: func(p Params) (*metrics.Table, error) {
			return AuxChainTable([]int{1, 2, 3, 4, 5}, p.Seed)
		}},
		{ID: "e6", Table: func(p Params) (*metrics.Table, error) {
			r, err := RunPartitionRecovery(5, p.Seed)
			if err != nil {
				return nil, err
			}
			t := metrics.NewTable("E6 — partition recovery (rebuilds under a cut super/sub link)",
				"cycles", "notifs during cut", "notifs after heal", "peak queue")
			t.AddRow(r.Cycles, r.DuringPartition, r.AfterHeal, r.QueuedPeak)
			return t, nil
		}},
		{ID: "e7", Table: func(p Params) (*metrics.Table, error) {
			return LossTable(24, 10, []float64{0, 0.01, 0.05, 0.1, 0.2}, p.Seed)
		}},
		{ID: "e9", Table: func(p Params) (*metrics.Table, error) {
			return MulticastAblationTable(32, 10, []int{1, 4, 8, 16, 31}, p.Seed)
		}},
		{ID: "e8", Unfenced: true, // seed-deterministic, but the recorded golden predates it
			Table: func(p Params) (*metrics.Table, error) {
				r, err := RunContinuousSearch(2000, p.Seed)
				if err != nil {
					return nil, err
				}
				t := metrics.NewTable("E8 — continuous search & watch-this fidelity",
					"docs", "search hits", "alerted docs", "agreement", "watch alerts", "watch expected")
				t.AddRow(r.Docs, r.SearchHits, r.AlertedDocs, fmt.Sprintf("%v", r.Agreement), r.WatchAlerts, r.WatchExpected)
				return t, nil
			}},
		{ID: "e10", Table: func(p Params) (*metrics.Table, error) {
			return DeliveryRecoveryTable([]int{1, 5, 25, 100}, p.Seed)
		}},
		{ID: "e11", Unfenced: true, // wall-clock throughput
			Table: func(p Params) (*metrics.Table, error) {
				return DeliveryThroughputTable(50000, 64, []int{1, 4, 16})
			}},
		{ID: "e12", Table: func(p Params) (*metrics.Table, error) {
			return ContentRoutingTable(16, 4, 5, p.Seed)
		}},
		{ID: "e13", Table: func(p Params) (*metrics.Table, error) {
			return CompositeAlertsTable(16, 4, p.Seed)
		}},
		// Replication acks ride delivery flush batching: "messages" is ±1.
		{ID: "e14", Masked: []string{"messages"}, Table: func(p Params) (*metrics.Table, error) {
			return ReplicaFailoverTable(16, 6, p.Seed)
		}},
		// "rt p99" is a wall-clock latency.
		{ID: "e15", Masked: []string{"rt p99"}, Table: func(p Params) (*metrics.Table, error) {
			return QoSOverloadTable(16, 30, 3, p.Seed)
		}},
		{ID: "e16", Unfenced: true, // wall-clock SLO quantiles and wall time
			Table: func(p Params) (*metrics.Table, error) {
				r, err := RunChaosSoak(DefaultChaosSoakConfig(p.Seed))
				if err != nil {
					return nil, err
				}
				return ChaosSoakTable(r), r.Check()
			}},
		{ID: "e18", Table: func(p Params) (*metrics.Table, error) {
			return HealthTable(8, 8, 2, 4, p.Seed)
		}},
		{ID: "e19", Unfenced: true, // wall time
			Table: func(p Params) (*metrics.Table, error) {
				cfg := DefaultChaosSoakConfig(p.Seed)
				// Tracing every event of a 100k population overflows the
				// 2^18-span collector, and a dropped span fails the bar.
				cfg.Load.Profiles = 20_000
				r, err := RunFlightSoak(cfg)
				if err != nil {
					return nil, err
				}
				return FlightSoakTable(r), r.Check()
			}},
	}
}
