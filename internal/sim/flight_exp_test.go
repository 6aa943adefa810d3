package sim

import (
	"testing"

	"github.com/gsalert/gsalert/internal/logging"
)

// TestChaosSoakFlightRecorder is the E19 acceptance bar: for three seeds,
// the E16 chaos soak runs with the flight recorder armed and the
// kill-primary fault must yield exactly one critical transition whose
// auto-captured bundle (a) spans at least three components' rings, (b)
// joins with the span collector — every traced record's ID resolves to an
// assembled trace — and (c) is byte-identical when the seed is replayed.
func TestChaosSoakFlightRecorder(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := soakConfigForTest(t, seed)
		cfg.Load.Profiles = 5_000 // two full chaos runs per seed; keep them cheap
		r, err := RunFlightSoak(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := r.Check(); err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, FlightSoakTable(r).Render())
			continue
		}
		// The black box must carry the health timeline that triggered the
		// capture and the promotion it recorded, not just data-plane noise.
		have := make(map[string]bool, len(r.DumpComponents))
		for _, c := range r.DumpComponents {
			have[c] = true
		}
		for _, want := range []string{"health", "replica"} {
			if !have[want] {
				t.Errorf("seed %d: bundle components %v lack %q", seed, r.DumpComponents, want)
			}
		}
	}
}

// TestFlightSoakBundleRoundTrip re-parses the soak's serialized bundle
// shape: a capture produced by the full deployment must survive
// ParseJSONL with its record count, components and trace index intact
// (the gs-client logs path).
func TestFlightSoakBundleRoundTrip(t *testing.T) {
	cfg := soakConfigForTest(t, 7)
	cfg.Load.Profiles = 2_000
	cfg.FlightRecorder = true
	cfg.TraceSample = 1
	out, err := runChaosSoak(cfg, cfg.Schedule)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if len(out.bundles) != 1 {
		t.Fatalf("captured %d bundles, want 1", len(out.bundles))
	}
	d, err := logging.ParseJSONL(out.bundles[0])
	if err != nil {
		t.Fatalf("parse bundle: %v", err)
	}
	orig := out.dumps[0]
	if len(d.Records) != len(orig.Records) {
		t.Fatalf("round-trip records = %d, want %d", len(d.Records), len(orig.Records))
	}
	if got, want := d.Components(), orig.Components(); len(got) != len(want) {
		t.Fatalf("round-trip components = %v, want %v", got, want)
	}
	if len(d.TraceIDs) != len(orig.TraceIDs) {
		t.Fatalf("round-trip trace index = %d, want %d", len(d.TraceIDs), len(orig.TraceIDs))
	}
	if d.Reason != "critical:replica" {
		t.Fatalf("round-trip reason = %q", d.Reason)
	}
}
