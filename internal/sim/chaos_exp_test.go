package sim

import (
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/chaos"
	"github.com/gsalert/gsalert/internal/qos"
)

// soakConfigForTest scales the acceptance-bar config down under -short
// (20k live profiles instead of 100k) so the suite stays fast in CI; the
// full bar runs in the long mode and in E16 itself.
func soakConfigForTest(t *testing.T, seed int64) ChaosSoakConfig {
	cfg := DefaultChaosSoakConfig(seed)
	if testing.Short() {
		cfg.Load.Profiles = 20_000
	}
	return cfg
}

// TestChaosSoakAcceptance is the E16 acceptance bar: for three seeds, a
// schedule containing a primary kill, a subtree partition, a degraded
// standby and mode flips runs against a 100k-profile population, and every
// PR 4/5 invariant must survive — realtime loss-free and multiset-identical
// to the failure-free baseline, normal deferred-not-lost across the
// promotion, bulk coalesced exactly once, zero pipeline drops, per-class
// p99 inside SLO.
func TestChaosSoakAcceptance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := soakConfigForTest(t, seed)
		r, err := RunChaosSoak(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := r.Check(); err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, ChaosSoakTable(r).Render())
			continue
		}
		if r.LiveProfiles != cfg.Load.Profiles {
			t.Errorf("seed %d: %d live profiles, want %d", seed, r.LiveProfiles, cfg.Load.Profiles)
		}
		counts := r.FaultCounts
		if counts[chaos.KindKillPrimary] < 1 || counts[chaos.KindPartition] < 1 || counts[chaos.KindFlipMode] < 1 {
			t.Errorf("seed %d: schedule composition %v below the bar", seed, counts)
		}
	}
}

// TestChaosSoakDeterministic replays one seed and requires identical
// observations: the soak is a reproducible experiment, not a flaky stress
// test.
func TestChaosSoakDeterministic(t *testing.T) {
	cfg := soakConfigForTest(t, 7)
	cfg.Load.Profiles = 5_000 // determinism needs two full runs; keep them cheap
	a, err := RunChaosSoak(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunChaosSoak(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	// The tuple covers the delivered/invariant observations. Transport
	// message totals are deliberately excluded: replication-stream traffic
	// rides the delivery pipeline's flush batching, which shifts a handful
	// of messages with goroutine scheduling (visible under -race) without
	// changing anything delivered.
	type obs struct {
		rt, fo, nmP, nmT, det, inh, blkP, dig, digEv int
	}
	o := func(r *ChaosSoakResult) obs {
		return obs{r.RealtimeDelivered, r.FailoverDelivered, r.NormalPrompt, r.NormalTotal,
			r.DetachedTotal, r.Inherited, r.BulkPrompt, r.Digests, r.DigestEvents}
	}
	if o(a) != o(b) {
		t.Fatalf("same seed, different observations:\n%+v\nvs\n%+v", o(a), o(b))
	}
	// The fault accounting must agree on the schedule having bitten in both
	// runs, even if the exact message counts wobble with batching.
	if (a.Blocked == 0) != (b.Blocked == 0) || (a.InjectedDrops == 0) != (b.InjectedDrops == 0) {
		t.Fatalf("fault accounting diverged: blocked %d vs %d, injected %d vs %d",
			a.Blocked, b.Blocked, a.InjectedDrops, b.InjectedDrops)
	}
}

// TestChaosSoakGeneratedSchedule runs the soak under a randomly generated
// (but valid) schedule: the engine's generator composes with the harness,
// not just the hand-written default.
func TestChaosSoakGeneratedSchedule(t *testing.T) {
	cfg := soakConfigForTest(t, 3)
	cfg.Load.Profiles = 5_000
	gen, err := chaos.Generate(chaos.GenConfig{
		Seed: 3, Rounds: soakRounds, Primary: SoakReplServer,
		LinkA: "gds0", LinkB: "gds2", InjectTypePrefix: "gs.",
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg.Schedule = gen
	r, err := RunChaosSoak(cfg)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s\nschedule:\n%s", err, ChaosSoakTable(r).Render(), gen.String())
	}
}

// TestChaosSoakCheckRequiresHealthCycle: a soak whose health plane never
// completed a fire→clear cycle fails the bar even when every delivery
// invariant held — the rules (or the engine) stopped observing the pipeline.
func TestChaosSoakCheckRequiresHealthCycle(t *testing.T) {
	cfg := DefaultChaosSoakConfig(7)
	cfg.Load.Profiles = 2_000
	r, err := RunChaosSoak(cfg)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("unmodified result fails: %v\n%s", err, ChaosSoakTable(r).Render())
	}
	r.HealthCycles = 0
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), "fire→clear") {
		t.Fatalf("Check with no health cycle = %v, want a fire→clear failure", err)
	}
}

func TestLoadGenDeterministicPopulation(t *testing.T) {
	build := func() ([]int, []qos.Class) {
		lg, err := NewLoadGen(LoadConfig{Seed: 11, Profiles: 500, Topics: 50, Collection: "C000.X"})
		if err != nil {
			t.Fatalf("loadgen: %v", err)
		}
		topics := make([]int, 200)
		classes := make([]qos.Class, 200)
		for i := range topics {
			topics[i] = lg.Topic()
			classes[i] = classFor(i)
		}
		return topics, classes
	}
	t1, c1 := build()
	t2, c2 := build()
	for i := range t1 {
		if t1[i] != t2[i] || c1[i] != c2[i] {
			t.Fatalf("draw %d differs across same-seed generators", i)
		}
	}
}

func TestLoadGenZipfSkew(t *testing.T) {
	lg, err := NewLoadGen(LoadConfig{Seed: 5, Profiles: 1, Topics: 100, Collection: "C000.X"})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	counts := make(map[int]int)
	for i := 0; i < 10_000; i++ {
		counts[lg.Topic()]++
	}
	// Zipf: the head topic dominates; the tail is long but thin.
	if counts[0] < counts[50]*5 {
		t.Fatalf("no zipf skew: topic 0 drew %d, topic 50 drew %d", counts[0], counts[50])
	}
	if counts[0] > 9_000 {
		t.Fatalf("degenerate skew: topic 0 drew %d of 10000", counts[0])
	}
}

func TestLoadGenClassMixExact(t *testing.T) {
	var got [qos.NumClasses]int
	for i := 0; i < 4000; i++ {
		got[classFor(i)]++
	}
	if got[qos.ClassRealtime] != 1000 || got[qos.ClassNormal] != 2000 || got[qos.ClassBulk] != 1000 {
		t.Fatalf("class mix %v, want exact 1000/2000/1000", got)
	}
}

func TestLoadGenRejectsBadCollection(t *testing.T) {
	for _, coll := range []string{"", "noqname", ".x", "h."} {
		if _, err := NewLoadGen(LoadConfig{Seed: 1, Collection: coll}); err == nil {
			t.Errorf("NewLoadGen accepted collection %q", coll)
		}
	}
}

func TestClassSLOReportsVacuous(t *testing.T) {
	// The merge itself is exercised through the soak tests; the vacuous
	// cases — no pipelines, no samples — must report OK with zero
	// quantiles rather than failing an SLO nothing was measured against.
	reports := ClassSLOReports(nil, map[qos.Class]time.Duration{qos.ClassRealtime: time.Second})
	if len(reports) != qos.NumClasses {
		t.Fatalf("got %d reports, want %d", len(reports), qos.NumClasses)
	}
	for _, r := range reports {
		if !r.OK || r.P99 != 0 || r.Delivered != 0 {
			t.Fatalf("vacuous report not OK/zero: %+v", r)
		}
	}
}
