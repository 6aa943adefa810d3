package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// E17 / E19 — what the tracing and logging planes cost the publish path.

// publishPath is one solitary server with a single matching subscriber and
// a no-op sink: the publish→match→deliver path the overhead pins and
// BenchmarkTraceOverhead time. mutate adjusts the service configuration
// (installs the tracer or logger under test).
type publishPath struct {
	svc *Service
	seq int
}

func newPublishPath(tb testing.TB, name string, mutate func(*Config)) *publishPath {
	tb.Helper()
	tr := transport.NewMemory()
	tb.Cleanup(func() { _ = tr.Close() })
	cfg := Config{ServerName: name, ServerAddr: "gs://" + name, Transport: tr}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = svc.Close() })
	if _, err := svc.Subscribe("u", profile.MustParse(`collection = "`+name+`.C"`)); err != nil {
		tb.Fatal(err)
	}
	svc.RegisterNotifier("u", NotifierFunc(func(Notification) {}))
	return &publishPath{svc: svc}
}

// publish pushes n fresh events through the path and returns the CPU time
// the calling OS thread spent publishing; the delivery drain that follows
// is not counted.
func (p *publishPath) publish(tb testing.TB, n int) time.Duration {
	ctx := context.Background()
	name := p.svc.Name()
	start := threadCPU()
	for i := 0; i < n; i++ {
		p.seq++
		ev := event.New(fmt.Sprintf("ovh-%s-%d", name, p.seq), event.TypeDocumentsAdded,
			event.QName{Host: name, Collection: "C"}, 1, nil, time.Unix(1117584000, 0))
		if _, err := p.svc.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
			tb.Fatal(err)
		}
	}
	elapsed := threadCPU() - start
	if err := p.svc.DrainDeliveries(ctx); err != nil {
		tb.Fatal(err)
	}
	return elapsed
}

// pinDisabledOverhead asserts that a plane installed but switched off (what
// mutate configures) costs the publish path nothing. The deterministic arm:
// a publish, delivery included, allocates no more with the plane than
// without it, and the plane records nothing (recorded counts its spans or
// log records). The timed arm: the publish path spends at most 2% more CPU
// with the plane. It times CPU, not wall clock, and only the publishing
// thread's (the test locks itself to its OS thread and reads
// CLOCK_THREAD_CPUTIME_ID), so time spent waiting for a core that other
// tests' processes hold is not counted. The two services run strictly
// interleaved batches and compare best-batch times, so clock-frequency
// drift, GC phase and a neighbour's cache pressure hit both sides equally;
// a small absolute floor absorbs what is left. Two
// identically configured services can still differ for their whole
// lifetime (where their hot structures and workers landed, not the plane
// under test), so every run measures the same number of fresh pairs and the
// median pair decides: that noise is as likely to favour either side, a
// real cost shifts every pair.
func pinDisabledOverhead(t *testing.T, what string, mutate func(*Config), recorded func() int64) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation swamps the 2% bar; run without -race")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer func() {
		if n := recorded(); n != 0 {
			t.Errorf("%s recorded %d spans or log records", what, n)
		}
	}()
	allocs := func(p *publishPath) float64 {
		return testing.AllocsPerRun(200, func() { p.publish(t, 1) })
	}
	if off, on := allocs(newPublishPath(t, "P", nil)), allocs(newPublishPath(t, "Q", mutate)); on > off {
		t.Errorf("a publish allocates %.0f times with %s, %.0f without it", on, what, off)
	}
	if testing.Short() {
		t.Skip("micro-benchmark comparison; skipped in -short mode")
	}
	const (
		pairs     = 25
		rounds    = 64
		batch     = 250
		floorNs   = 150.0
		tolerance = 1.02
	)
	perOp := func(p *publishPath) float64 {
		return float64(p.publish(t, batch).Nanoseconds()) / batch
	}
	type pair struct{ off, on float64 }
	measured := make([]pair, pairs)
	for i := range measured {
		off := newPublishPath(t, "P", nil)
		on := newPublishPath(t, "Q", mutate)
		perOp(off) // warm-up both paths before measuring
		perOp(on)
		m := pair{math.Inf(1), math.Inf(1)}
		for r := 0; r < rounds; r++ {
			// Short batches, alternating which side goes first, so both
			// sides sample the same moments of a neighbour's load.
			if r%2 == 0 {
				m.off = min(m.off, perOp(off))
				m.on = min(m.on, perOp(on))
			} else {
				m.on = min(m.on, perOp(on))
				m.off = min(m.off, perOp(off))
			}
		}
		measured[i] = m
		_ = off.svc.Close()
		_ = on.svc.Close()
	}
	over := func(m pair) float64 { return m.on - (m.off*tolerance + floorNs) }
	slices.SortFunc(measured, func(a, b pair) int { return cmp.Compare(over(a), over(b)) })
	m := measured[pairs/2]
	t.Logf("median of %d pairs: publish path without %.0f CPU ns/op, with %s %.0f CPU ns/op (limit %.0f)", pairs, m.off, what, m.on, m.on-over(m))
	if over(m) > 0 {
		t.Errorf("publish path with %s %.0f CPU ns/op exceeds %.0f CPU ns/op without it by more than 2%%", what, m.on, m.off)
	}
}

// benchTracer builds a tracer head-sampling at rate (negative: no tracer at
// all) into a collector of the production-default capacity — the ring's
// pointer slots are GC-scanned, so an oversized ring would tax every
// configuration with scan work no deployment pays.
func benchTracer(rate float64) *trace.Tracer {
	if rate < 0 {
		return nil
	}
	return trace.New(trace.Config{Service: "P", SampleRate: rate, Seed: 9, Collector: trace.NewCollector(trace.DefaultCapacity)})
}

// BenchmarkTraceOverhead compares the publish path with tracing off,
// installed-but-unsampled (the always-on production default — one timed
// root per publish, nothing recorded), 1%-sampled and fully sampled
// (experiment E17). The off vs sample=0 delta is the always-on cost every
// deployment pays; TestTraceDisabledOverhead holds it within 2%.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, tc := range []struct {
		name string
		rate float64
	}{{"off", -1}, {"sample=0", 0}, {"sample=0.01", 0.01}, {"sample=1", 1}} {
		b.Run(tc.name, func(b *testing.B) {
			p := newPublishPath(b, "P", func(c *Config) { c.Tracer = benchTracer(tc.rate) })
			b.ResetTimer()
			p.publish(b, b.N)
		})
	}
}

// TestTraceDisabledOverhead is the E17 acceptance assertion: a tracer
// installed with sampling disabled adds at most 2% to the publish path
// versus no tracer at all.
func TestTraceDisabledOverhead(t *testing.T) {
	tracer := benchTracer(0)
	pinDisabledOverhead(t, "a sampling-disabled tracer", func(c *Config) { c.Tracer = tracer },
		tracer.Collector().SpansTotal)
}

// TestLogDisabledOverhead is the E19 acceptance assertion, the logging twin
// of TestTraceDisabledOverhead. The installed logger sits at info; every
// publish-path site logs at debug, so the measured cost is the level gate
// alone — the posture every production deployment runs in.
func TestLogDisabledOverhead(t *testing.T) {
	rec := logging.NewRecorder(logging.Config{Level: logging.LevelInfo})
	pinDisabledOverhead(t, "a logger above the publish path's debug sites", func(c *Config) { c.Log = rec.For("core") },
		rec.Emitted)
}
