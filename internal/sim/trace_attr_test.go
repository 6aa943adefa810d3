package sim

import (
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/trace"
)

// TestSoakTraceTreeConnected runs the E16 soak fully sampled on the
// 16-server tree — the default schedule flips broadcast → multicast →
// content mid-run and kills/promotes the replicated primary — and requires
// every assembled trace to be one connected span tree: a publish root is
// present and every span's parent resolves within its trace. An orphan
// would mean a stage re-parented onto a context that was never recorded
// (a broken propagation hand-off at a routing hop, a coalesce, a flush
// batch or a replicated apply).
func TestSoakTraceTreeConnected(t *testing.T) {
	cfg := DefaultChaosSoakConfig(7)
	cfg.Load.Profiles = 2_000 // tracing coverage, not scale, is under test
	cfg.TraceSample = 1
	out, err := runChaosSoak(cfg, cfg.Schedule)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if len(out.traces) == 0 {
		t.Fatal("fully sampled soak produced no traces")
	}
	if out.TraceDropped > 0 {
		// Connectivity can only be asserted while the ring kept everything.
		t.Fatalf("trace ring dropped %d of %d spans; grow the soak collector", out.TraceDropped, out.TraceSpans)
	}
	orphans, incomplete := 0, 0
	for _, tr := range out.traces {
		if !tr.Complete {
			incomplete++
			continue
		}
		byID := make(map[string]bool, len(tr.Spans))
		for _, s := range tr.Spans {
			byID[s.SpanID] = true
		}
		for _, s := range tr.Spans {
			if s.ParentID != "" && !byID[s.ParentID] {
				orphans++
				t.Logf("orphan span %s (%s at %s): parent %s not in trace %s",
					s.SpanID, s.Name, s.Service, s.ParentID, tr.TraceID)
			}
		}
	}
	if incomplete > 0 {
		t.Errorf("%d of %d traces have no publish root", incomplete, len(out.traces))
	}
	if orphans > 0 {
		t.Errorf("%d orphan spans across %d traces", orphans, len(out.traces))
	}
}

// TestSoakTraceAttribution checks the E16 acceptance bar on the latency
// attribution built from the same fully sampled soak: every QoS
// class has traced notify chains, the union of attributed stages covers
// the full pipeline (publish, route-hop, match, composite, qos,
// queue-wait, flush, notify), and each class's per-stage sums reconstruct
// its measured end-to-end latency within 10%.
func TestSoakTraceAttribution(t *testing.T) {
	cfg := DefaultChaosSoakConfig(42)
	cfg.Load.Profiles = 2_000
	cfg.TraceSample = 1
	out, err := runChaosSoak(cfg, cfg.Schedule)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if len(out.Attribution) == 0 {
		t.Fatal("fully sampled soak produced no attribution rows")
	}
	seenClass := make(map[string]bool)
	seenStage := make(map[string]bool)
	for _, a := range out.Attribution {
		seenClass[a.Class] = true
		if a.Samples == 0 {
			t.Errorf("class %s: attribution row with no samples", a.Class)
		}
		if a.E2EP99 <= 0 {
			t.Errorf("class %s: e2e p99 = %v, want > 0", a.Class, a.E2EP99)
		}
		for stage := range a.Stage {
			seenStage[stage] = true
		}
		if e := a.SumError(); e > 0.10 {
			t.Errorf("class %s: stage sums %v vs e2e %v — off by %.1f%% (bar: 10%%)",
				a.Class, a.StageSum, a.TotalE2E, e*100)
		}
	}
	for _, class := range []string{"realtime", "normal", "bulk"} {
		if !seenClass[class] {
			t.Errorf("no attribution row for class %s", class)
		}
	}
	// The stages a delivered notification crosses: publish → directory
	// hops → match → composite/qos admission → delivery queue → flush →
	// notify.
	for _, stage := range []string{
		trace.StagePublish, trace.StageRouteHop, trace.StageMatch, trace.StageComposite,
		trace.StageQoS, trace.StageQueueWait, trace.StageFlush, trace.StageNotify,
	} {
		if !seenStage[stage] {
			t.Errorf("stage %s missing from the attribution", stage)
		}
	}
	if t.Failed() {
		for _, a := range out.Attribution {
			t.Logf("%s: %d chains, e2e p50 %v p99 %v, stage-sum %v vs e2e %v, stages %v",
				a.Class, a.Samples, a.E2EP50, a.E2EP99, a.StageSum, a.TotalE2E, a.Stage)
		}
	}
}

// TestAttributionReportsMath pins the aggregation arithmetic on a
// hand-built sample set: totals, shares, quantiles and the sum-error.
func TestAttributionReportsMath(t *testing.T) {
	samples := []trace.PathSample{
		{Class: "realtime", E2E: 100, Stages: map[string]time.Duration{"publish": 40, "notify": 60}},
		{Class: "realtime", E2E: 300, Stages: map[string]time.Duration{"publish": 100, "notify": 200}},
		{Class: "bulk", E2E: 50, Stages: map[string]time.Duration{"publish": 30, "qos": 10}},
	}
	reports := AttributionReports(samples)
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	rt := reports[0]
	if rt.Class != "realtime" || reports[1].Class != "bulk" {
		t.Fatalf("class order = %s, %s; want realtime, bulk", reports[0].Class, reports[1].Class)
	}
	if rt.Samples != 2 || rt.TotalE2E != 400 || rt.Stage["publish"] != 140 || rt.Stage["notify"] != 260 {
		t.Errorf("realtime aggregation wrong: %+v", rt)
	}
	if rt.Share["publish"] != 0.35 {
		t.Errorf("publish share = %v, want 0.35", rt.Share["publish"])
	}
	if rt.E2EP50 != 100 || rt.E2EP99 != 300 {
		t.Errorf("quantiles p50=%v p99=%v, want 100/300", rt.E2EP50, rt.E2EP99)
	}
	if rt.SumError() != 0 {
		t.Errorf("exact sums must give zero error, got %v", rt.SumError())
	}
	blk := reports[1]
	if e := blk.SumError(); e != 0.2 {
		t.Errorf("bulk sum error = %v, want 0.2 (40 attributed of 50 e2e)", e)
	}
}
