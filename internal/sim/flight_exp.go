package sim

import (
	"bytes"
	"fmt"
	"time"

	"github.com/gsalert/gsalert/internal/chaos"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/metrics"
)

// E19 — post-mortem flight recorder under chaos. The E16 soak runs with
// the full logging plane armed: every core service, delivery pipeline,
// directory node, the replica standby and the health engine log into one
// recorder's per-component flight rings, on the soak's virtual clock, with
// end-to-end tracing at sample rate 1 so every record carries a resolvable
// trace ID. A critical health rule (soak-promotion) watches the
// gsalert_replica_promoted gauge; the schedule's kill-primary fault flips
// it, the rule turns the replica component critical, and the transition
// hook captures a post-mortem bundle straight from the rings.
//
// The acceptance bar (docs/EXPERIMENTS.md §E19):
//
//   - the kill produces exactly ONE transition into Critical, hence
//     exactly one auto-captured bundle per run;
//   - the bundle holds ring records from at least three distinct
//     components — the black box shows the cross-subsystem timeline that
//     led to the capture, not one component's view;
//   - every record that carries a trace ID resolves to a trace the span
//     collector assembled — logs, traces and metrics join on the same IDs
//     (the "three pillars" correlation of docs/OBSERVABILITY.md);
//   - replaying the same seed yields a byte-identical bundle: capture
//     timestamps ride the virtual clock and every log site runs on the
//     orchestrating goroutine, so the black box is a pure function of the
//     seed.

// soakPromotionRules extends the soak rule set for flight-recorder runs:
// a promotion under a kill-primary fault is exactly the kind of event a
// post-mortem should capture, and the gauge never clears, so the rule
// yields one critical transition and stays firing.
const soakPromotionRules = `
rule soak-promotion {
	component = replica
	severity = critical
	expr = gsalert_replica_promoted > 0
}
`

// FlightSoakResult is one E19 row: the soak ran twice under the same seed
// and schedule, and the first run's auto-captured bundle is analysed
// against the second's for determinism.
type FlightSoakResult struct {
	Servers, Rounds, Events int
	Seed                    int64
	LiveProfiles            int

	// Promoted confirms the kill-primary fault bit.
	Promoted bool
	// CriticalTransitions counts health transitions into Critical across
	// the run — the bar is exactly one (the promotion rule fires once and
	// never clears).
	CriticalTransitions int
	// Dumps is the number of auto-captured bundles (one per critical
	// transition).
	Dumps int
	// Reason is the captured bundle's trigger string.
	Reason string

	// DumpRecords and DumpComponents describe the bundle's ring snapshot.
	DumpRecords    int
	DumpComponents []string
	// TracedRecords counts bundle records carrying a trace ID;
	// ResolvedRecords counts those whose ID the span collector assembled
	// into a trace. The bar is equality with TracedRecords > 0.
	TracedRecords, ResolvedRecords int
	// RetainedTraces is the bundle's trace-index length (IDs live in the
	// collector at capture time).
	RetainedTraces int
	// BundleBytes is the serialized bundle size; Bundle is the serialized
	// bundle itself (loadgen writes it as the CI soak artifact).
	BundleBytes int
	Bundle      []byte
	// Deterministic reports the replay produced a byte-identical bundle.
	Deterministic bool
	// TraceRingDropped is the collector's drop-oldest count; non-zero
	// would make the retained-trace index timing-dependent.
	TraceRingDropped int64

	// LoggingStats is the per-component ring accounting at end of run.
	LoggingStats []logging.ComponentStats
	// HealthTransitions is the full transition log of the chaos run.
	HealthTransitions []health.Transition

	Wall, WallReplay time.Duration
}

// RunFlightSoak plays the E19 experiment: the E16 chaos soak with the
// flight recorder armed, twice under the same seed, returning the bundle
// analysis. The config's Health, FlightRecorder and TraceSample knobs are
// forced to the experiment's requirements.
func RunFlightSoak(cfg ChaosSoakConfig) (*FlightSoakResult, error) {
	if cfg.Servers < 4 {
		return nil, fmt.Errorf("sim: soak needs >= 4 servers, got %d", cfg.Servers)
	}
	if cfg.Schedule.Counts()[chaos.KindKillPrimary] < 1 {
		return nil, fmt.Errorf("sim: E19 schedule has no kill-primary fault to capture")
	}
	cfg.Health = true
	cfg.FlightRecorder = true
	cfg.TraceSample = 1
	a, err := runChaosSoak(cfg, cfg.Schedule)
	if err != nil {
		return nil, fmt.Errorf("sim: E19 run: %w", err)
	}
	b, err := runChaosSoak(cfg, cfg.Schedule)
	if err != nil {
		return nil, fmt.Errorf("sim: E19 replay: %w", err)
	}
	r := &FlightSoakResult{
		Servers:             cfg.Servers,
		Rounds:              cfg.Rounds,
		Events:              cfg.Rounds * cfg.EventsPerRound,
		Seed:                cfg.Seed,
		LiveProfiles:        a.LiveProfiles,
		Promoted:            a.Promoted,
		CriticalTransitions: a.critical,
		Dumps:               len(a.dumps),
		TraceRingDropped:    a.TraceDropped,
		LoggingStats:        a.logStats,
		HealthTransitions:   a.HealthTransitions,
		Wall:                a.Wall,
		WallReplay:          b.Wall,
	}
	if len(a.dumps) > 0 {
		d := a.dumps[0]
		r.Reason = d.Reason
		r.DumpRecords = len(d.Records)
		r.DumpComponents = d.Components()
		r.RetainedTraces = len(d.TraceIDs)
		r.BundleBytes = len(a.bundles[0])
		r.Bundle = a.bundles[0]
		for _, rec := range d.Records {
			if rec.TraceID == "" {
				continue
			}
			r.TracedRecords++
			if a.retainedTraces[rec.TraceID] {
				r.ResolvedRecords++
			}
		}
	}
	r.Deterministic = len(a.bundles) == 1 && len(b.bundles) == 1 &&
		bytes.Equal(a.bundles[0], b.bundles[0])
	return r, nil
}

// Check asserts the E19 acceptance bar on a result.
func (r *FlightSoakResult) Check() error {
	switch {
	case !r.Promoted:
		return fmt.Errorf("sim: E19 schedule killed no primary — nothing to capture")
	case r.CriticalTransitions != 1:
		return fmt.Errorf("sim: E19 saw %d critical transitions, want exactly 1", r.CriticalTransitions)
	case r.Dumps != 1:
		return fmt.Errorf("sim: E19 captured %d bundles, want exactly 1", r.Dumps)
	case r.Reason != "critical:replica":
		return fmt.Errorf("sim: E19 bundle reason %q, want critical:replica", r.Reason)
	case r.DumpRecords == 0:
		return fmt.Errorf("sim: E19 bundle holds no ring records")
	case len(r.DumpComponents) < 3:
		return fmt.Errorf("sim: E19 bundle spans %d components %v, want >= 3",
			len(r.DumpComponents), r.DumpComponents)
	case r.TracedRecords == 0:
		return fmt.Errorf("sim: E19 no bundle record carries a trace ID — logs and traces never joined")
	case r.ResolvedRecords != r.TracedRecords:
		return fmt.Errorf("sim: E19 %d of %d traced records resolve to an assembled trace",
			r.ResolvedRecords, r.TracedRecords)
	case r.TraceRingDropped != 0:
		return fmt.Errorf("sim: E19 span collector dropped %d spans — the trace index is lossy", r.TraceRingDropped)
	case !r.Deterministic:
		return fmt.Errorf("sim: E19 replay bundle differs — the black box is not a function of the seed")
	}
	return nil
}

// FlightSoakTable renders one E19 result as an experiment table.
func FlightSoakTable(r *FlightSoakResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E19 — flight recorder under chaos (%d servers, %d live profiles, %d events, seed %d)",
			r.Servers, r.LiveProfiles, r.Events, r.Seed),
		"check", "value")
	t.AddRow("promoted / critical transitions", fmt.Sprintf("%v / %d", r.Promoted, r.CriticalTransitions))
	t.AddRow("bundles captured / reason", fmt.Sprintf("%d / %s", r.Dumps, r.Reason))
	t.AddRow("bundle records / components", fmt.Sprintf("%d / %v", r.DumpRecords, r.DumpComponents))
	t.AddRow("traced records resolved", fmt.Sprintf("%d / %d", r.ResolvedRecords, r.TracedRecords))
	t.AddRow("retained trace index / ring-dropped spans", fmt.Sprintf("%d / %d", r.RetainedTraces, r.TraceRingDropped))
	t.AddRow("bundle bytes / replay identical", fmt.Sprintf("%d / %v", r.BundleBytes, r.Deterministic))
	for _, s := range r.LoggingStats {
		t.AddRow(fmt.Sprintf("logging[%s] emitted/dropped/occupancy", s.Component),
			fmt.Sprintf("%d / %d / %d of %d", s.Emitted, s.Dropped, s.Occupancy, s.Capacity))
	}
	t.AddRow("health transitions", len(r.HealthTransitions))
	t.AddRow("wall run / replay", fmt.Sprintf("%v / %v", r.Wall.Round(time.Millisecond), r.WallReplay.Round(time.Millisecond)))
	return t
}
