package health

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeSource is a hand-set metric source for deterministic engine tests.
type fakeSource struct {
	mu      sync.Mutex
	scalars map[string]float64 // rendered selector -> value (single series per name here)
	hist    *metrics.LatencyHistogram
	histFor string
}

func newFakeSource() *fakeSource {
	return &fakeSource{scalars: map[string]float64{}}
}

func (f *fakeSource) set(name string, v float64) {
	f.mu.Lock()
	f.scalars[name] = v
	f.mu.Unlock()
}

func (f *fakeSource) add(name string, d float64) {
	f.mu.Lock()
	f.scalars[name] += d
	f.mu.Unlock()
}

func (f *fakeSource) Gather() ([]obs.Sample, []obs.HistogramSample) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var s []obs.Sample
	for name, v := range f.scalars {
		s = append(s, obs.Sample{Name: name, Value: v})
	}
	var h []obs.HistogramSample
	if f.hist != nil {
		h = append(h, obs.HistogramSample{Name: f.histFor, Labels: []obs.Label{obs.L("class", "realtime")}, H: f.hist})
	}
	return s, h
}

// tickClock is a virtual clock advanced manually.
type tickClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTickClock() *tickClock { return &tickClock{now: time.Unix(1700000000, 0)} }

func (c *tickClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

func mustRules(t *testing.T, src string) *RuleSet {
	t.Helper()
	rs, err := ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestThresholdHysteresis drives a gauge rule through the full
// inactive -> pending -> firing -> (hold through blips) -> inactive cycle.
func TestThresholdHysteresis(t *testing.T) {
	src := newFakeSource()
	src.set("gsalert_delivery_queue_depth", 0)
	clock := newTickClock()
	rs := mustRules(t, `
rule depth {
	component = delivery
	severity = warning
	expr = gsalert_delivery_queue_depth > 100
	for = 20s
	clear = 20s
}`)
	var transitions []Transition
	e := NewEngine(src, rs, Options{
		OnTransition: func(tr Transition) { transitions = append(transitions, tr) },
	})

	tick := func() { e.TickAt(clock.Advance(10 * time.Second)) }

	tick() // below threshold
	if st := e.ComponentState("delivery"); st != Healthy {
		t.Fatalf("state = %s, want healthy", st)
	}

	src.set("gsalert_delivery_queue_depth", 500)
	tick() // condition true, pending (for=20s not yet held)
	if got := e.Snapshot().Rules[0].State; got != RulePending {
		t.Fatalf("rule state = %s, want pending", got)
	}
	if st := e.ComponentState("delivery"); st != Healthy {
		t.Fatalf("pending must not degrade the component, state = %s", st)
	}

	tick() // held 20s -> firing
	tick() // stays firing
	if st := e.ComponentState("delivery"); st != Degraded {
		t.Fatalf("state = %s, want degraded", st)
	}

	// A one-tick dip must NOT clear (clear=20s of continuous quiet).
	src.set("gsalert_delivery_queue_depth", 0)
	tick()
	src.set("gsalert_delivery_queue_depth", 500)
	tick()
	if st := e.ComponentState("delivery"); st != Degraded {
		t.Fatalf("blip cleared the rule early, state = %s", st)
	}

	// Sustained quiet clears.
	src.set("gsalert_delivery_queue_depth", 0)
	tick()
	tick()
	tick()
	if st := e.ComponentState("delivery"); st != Healthy {
		t.Fatalf("state = %s, want healthy after clear hold", st)
	}

	if len(transitions) != 2 {
		t.Fatalf("transitions = %d (%+v), want 2", len(transitions), transitions)
	}
	if transitions[0].From != Healthy || transitions[0].To != Degraded || transitions[0].Rule != "depth" {
		t.Fatalf("first transition wrong: %+v", transitions[0])
	}
	if transitions[1].From != Degraded || transitions[1].To != Healthy {
		t.Fatalf("second transition wrong: %+v", transitions[1])
	}
}

// TestQuantileRule drives a p99 rule from a live histogram.
func TestQuantileRule(t *testing.T) {
	src := newFakeSource()
	src.hist = &metrics.LatencyHistogram{}
	src.histFor = "gsalert_delivery_latency_seconds"
	clock := newTickClock()
	rs := mustRules(t, `
rule p99 {
	component = delivery
	severity = critical
	expr = p99(gsalert_delivery_latency_seconds{class="realtime"}) > 1s
}`)
	e := NewEngine(src, rs, Options{})

	for i := 0; i < 100; i++ {
		src.hist.Observe(10 * time.Millisecond)
	}
	e.TickAt(clock.Advance(time.Second))
	if st := e.ComponentState("delivery"); st != Healthy {
		t.Fatalf("fast p99 fired: %s", st)
	}

	for i := 0; i < 100; i++ {
		src.hist.Observe(5 * time.Second)
	}
	e.TickAt(clock.Advance(time.Second))
	if st := e.ComponentState("delivery"); st != Critical {
		t.Fatalf("slow p99 did not fire: %s", st)
	}
}

// TestRateRule checks the per-second-increase selector over its window.
func TestRateRule(t *testing.T) {
	src := newFakeSource()
	src.set("gsalert_qos_deferred_total", 0)
	clock := newTickClock()
	rs := mustRules(t, `
rule deferred {
	component = qos
	severity = warning
	expr = rate(gsalert_qos_deferred_total[1m]) > 10
}`)
	e := NewEngine(src, rs, Options{})

	// First tick has no history — never fires.
	e.TickAt(clock.Advance(15 * time.Second))
	if st := e.ComponentState("qos"); st != Healthy {
		t.Fatalf("rate fired with no history: %s", st)
	}
	// +30/15s = 2/s: under.
	src.add("gsalert_qos_deferred_total", 30)
	e.TickAt(clock.Advance(15 * time.Second))
	if st := e.ComponentState("qos"); st != Healthy {
		t.Fatalf("2/s fired against a 10/s bar: %s", st)
	}
	// +600/15s = 40/s over the window: fires.
	src.add("gsalert_qos_deferred_total", 600)
	e.TickAt(clock.Advance(15 * time.Second))
	if st := e.ComponentState("qos"); st != Degraded {
		t.Fatalf("40/s did not fire: %s", st)
	}
}

// TestBurnRateBothWindows checks the multi-window AND: a short spike fires
// only once the long window also burns, and recovery clears the short
// window first.
func TestBurnRateBothWindows(t *testing.T) {
	src := newFakeSource()
	src.set("gsalert_delivery_dropped_total", 0)
	src.set("gsalert_delivery_enqueued_total", 0)
	clock := newTickClock()
	rs := mustRules(t, `
rule loss {
	component = delivery
	severity = critical
	burnrate = gsalert_delivery_dropped_total / gsalert_delivery_enqueued_total
	slo = 0.001
	windows = 1m, 5m
	factor = 10
}`)
	e := NewEngine(src, rs, Options{})

	// Healthy traffic for 6 minutes fills both windows with ~zero burn.
	for i := 0; i < 12; i++ {
		src.add("gsalert_delivery_enqueued_total", 1000)
		e.TickAt(clock.Advance(30 * time.Second))
	}
	if st := e.ComponentState("delivery"); st != Healthy {
		t.Fatalf("zero-loss traffic fired: %s", st)
	}

	// Losses at 5% (50x the 0.1% budget) — the short window saturates fast;
	// the long window still averages over old clean traffic, so it takes
	// more ticks. Eventually both exceed 10x and the rule fires.
	fired := false
	for i := 0; i < 12; i++ {
		src.add("gsalert_delivery_enqueued_total", 1000)
		src.add("gsalert_delivery_dropped_total", 50)
		e.TickAt(clock.Advance(30 * time.Second))
		if e.ComponentState("delivery") == Critical {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("sustained 50x burn never fired")
	}

	// Recovery: clean traffic empties the short window quickly; the rule
	// clears even though the long window still remembers the burn.
	cleared := false
	for i := 0; i < 12; i++ {
		src.add("gsalert_delivery_enqueued_total", 1000)
		e.TickAt(clock.Advance(30 * time.Second))
		if e.ComponentState("delivery") == Healthy {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("clean traffic never cleared the burn alert")
	}
}

// TestComponentAggregation checks max-severity wins and per-rule clears
// step the component down.
func TestComponentAggregation(t *testing.T) {
	src := newFakeSource()
	src.set("gsalert_delivery_queue_depth", 0)
	src.set("gsalert_replica_stream_lag", 0)
	clock := newTickClock()
	rs := mustRules(t, `
rule warn {
	component = delivery
	severity = warning
	expr = gsalert_delivery_queue_depth > 10
}
rule crit {
	component = delivery
	severity = critical
	expr = gsalert_replica_stream_lag > 10
}`)
	e := NewEngine(src, rs, Options{})
	tick := func() { e.TickAt(clock.Advance(10 * time.Second)) }

	src.set("gsalert_delivery_queue_depth", 50)
	tick()
	if st := e.ComponentState("delivery"); st != Degraded {
		t.Fatalf("state = %s, want degraded", st)
	}
	src.set("gsalert_replica_stream_lag", 50)
	tick()
	if st := e.ComponentState("delivery"); st != Critical {
		t.Fatalf("state = %s, want critical (max severity wins)", st)
	}
	src.set("gsalert_replica_stream_lag", 0)
	tick()
	if st := e.ComponentState("delivery"); st != Degraded {
		t.Fatalf("state = %s, want degraded after critical cleared", st)
	}
	src.set("gsalert_delivery_queue_depth", 0)
	tick()
	if st := e.ComponentState("delivery"); st != Healthy {
		t.Fatalf("state = %s, want healthy", st)
	}
}

// TestReadiness checks the check registry and aggregate.
func TestReadiness(t *testing.T) {
	e := NewEngine(newFakeSource(), DefaultRules(), Options{})
	if ok, _ := e.Readiness(); !ok {
		t.Fatal("no checks registered must read ready")
	}
	down := true
	e.AddReadiness("standby-caught-up", func() error {
		if down {
			return errors.New("standby lagging")
		}
		return nil
	})
	e.AddReadiness("always-ok", func() error { return nil })
	ok, results := e.Readiness()
	if ok || len(results) != 2 || results[0].OK || results[0].Err == "" || !results[1].OK {
		t.Fatalf("readiness = %v %+v", ok, results)
	}
	down = false
	if ok, _ := e.Readiness(); !ok {
		t.Fatal("all checks passing must read ready")
	}
}

// TestExpositionGolden pins the ALERTS and gsalert_health_* exposition
// while rules fire, against testdata/golden.prom. Regenerate with
// `go test ./internal/health -update`.
func TestExpositionGolden(t *testing.T) {
	src := newFakeSource()
	src.set("gsalert_delivery_queue_depth", 500)
	src.set("gsalert_replica_stream_lag", 0)
	clock := newTickClock()
	rs := mustRules(t, `
rule depth {
	component = delivery
	severity = warning
	expr = gsalert_delivery_queue_depth > 100
}
rule lag {
	component = delivery
	severity = critical
	expr = gsalert_replica_stream_lag > 10
}
rule idle {
	component = qos
	severity = warning
	expr = gsalert_delivery_queue_depth < 0
}`)
	e := NewEngine(src, rs, Options{})
	e.TickAt(clock.Advance(10 * time.Second))

	reg := obs.NewRegistry()
	e.Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	path := filepath.Join("testdata", "golden.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("health exposition drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestScrapeDuringTransitions scrapes the registry concurrently with
// engine ticks that flip rules — the -race bar for the collector path.
func TestScrapeDuringTransitions(t *testing.T) {
	src := newFakeSource()
	src.set("gsalert_delivery_queue_depth", 0)
	rs := mustRules(t, `
rule depth {
	component = delivery
	severity = warning
	expr = gsalert_delivery_queue_depth > 100
}`)
	clock := newTickClock()
	var mu sync.Mutex // OnTransition appends race-free
	var seen []Transition
	e := NewEngine(src, rs, Options{OnTransition: func(tr Transition) {
		mu.Lock()
		seen = append(seen, tr)
		mu.Unlock()
	}})
	reg := obs.NewRegistry()
	e.Register(reg)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			src.set("gsalert_delivery_queue_depth", 500)
		} else {
			src.set("gsalert_delivery_queue_depth", 0)
		}
		e.TickAt(clock.Advance(time.Second))
	}
	close(stop)
	wg.Wait()
	mu.Lock()
	n := len(seen)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no transitions observed")
	}
}

// TestEngineOverRealRegistry wires the engine against a real obs.Registry
// via Gather — the integration shape gs-server uses.
func TestEngineOverRealRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	var depth float64
	var mu sync.Mutex
	reg.Func(&obs.Desc{Name: "gsalert_delivery_queue_depth", Help: "Queue depth.", Kind: obs.KindGauge}, func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return depth
	})
	clock := newTickClock()
	rs := mustRules(t, `
rule depth {
	component = delivery
	severity = critical
	expr = gsalert_delivery_queue_depth > 100
}`)
	e := NewEngine(reg, rs, Options{})
	e.TickAt(clock.Advance(time.Second))
	if st := e.ComponentState("delivery"); st != Healthy {
		t.Fatalf("state = %s, want healthy", st)
	}
	mu.Lock()
	depth = 500
	mu.Unlock()
	e.TickAt(clock.Advance(time.Second))
	if st := e.ComponentState("delivery"); st != Critical {
		t.Fatalf("state = %s, want critical", st)
	}
}

// TestExporterBacklogRuleFires drives the built-in exporter-queue-backlog
// rule from a real push exporter whose sink never answers: the queue fills
// to its capacity and stays there, and the rule must reach firing once its
// `for` hold has passed.
func TestExporterBacklogRuleFires(t *testing.T) {
	hang := make(chan struct{})
	sink := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-hang }))
	defer sink.Close()
	reg := obs.NewRegistry()
	exp, err := obs.NewExporter(reg, obs.ExporterConfig{URL: sink.URL, Interval: time.Millisecond, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	defer close(hang) // runs first: lets the sender drain so Close returns

	clock := newTickClock()
	e := NewEngine(reg, DefaultRules(), Options{})
	state := func() RuleStateName {
		for _, r := range e.Snapshot().Rules {
			if r.Name == "exporter-queue-backlog" {
				return r.State
			}
		}
		t.Fatal("exporter-queue-backlog is not a built-in rule")
		return ""
	}
	deadline := time.Now().Add(10 * time.Second)
	for state() != RulePending {
		if time.Now().After(deadline) {
			t.Fatal("exporter-queue-backlog never went pending with the sink hung")
		}
		time.Sleep(5 * time.Millisecond)
		e.TickAt(clock.Advance(time.Second))
	}
	e.TickAt(clock.Advance(61 * time.Second))
	if got := state(); got != RuleFiring {
		t.Fatalf("rule state = %s after the 1m hold, want firing", got)
	}
	if st := e.ComponentState("exporter"); st != Degraded {
		t.Fatalf("exporter component = %s, want degraded", st)
	}
}

// blockingSource parks every Gather until release is closed, announcing
// each entry on entered.
type blockingSource struct {
	entered chan struct{}
	release chan struct{}
}

func (s *blockingSource) Gather() ([]obs.Sample, []obs.HistogramSample) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	return nil, nil
}

// TestEngineCloseWaitsForTick pins the Start/Close lifecycle: a second Start
// is a no-op, and Close does not return while the loop's tick is still
// inside Gather, so no OnTransition can run after Close.
func TestEngineCloseWaitsForTick(t *testing.T) {
	src := &blockingSource{entered: make(chan struct{}, 1), release: make(chan struct{})}
	e := NewEngine(src, DefaultRules(), Options{})
	e.Start(time.Millisecond)
	e.Start(time.Millisecond)
	<-src.entered

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a tick was inside Gather")
	case <-time.After(50 * time.Millisecond):
	}
	close(src.release)
	<-closed
}

// TestSnapshotShape sanity-checks the /healthz document contents.
func TestSnapshotShape(t *testing.T) {
	src := newFakeSource()
	src.set("gsalert_delivery_queue_depth", 500)
	clock := newTickClock()
	rs := mustRules(t, `
rule depth {
	component = delivery
	severity = warning
	expr = gsalert_delivery_queue_depth > 100
}`)
	e := NewEngine(src, rs, Options{})
	e.TickAt(clock.Advance(time.Second))
	st := e.Snapshot()
	if st.State != Degraded {
		t.Fatalf("overall = %s, want degraded", st.State)
	}
	if len(st.Components) != 1 || st.Components[0].Name != "delivery" {
		t.Fatalf("components = %+v", st.Components)
	}
	if len(st.Rules) != 1 || st.Rules[0].State != RuleFiring || st.Rules[0].Value != 500 {
		t.Fatalf("rules = %+v", st.Rules)
	}
	if len(st.Transitions) != 1 || st.Evals != 1 {
		t.Fatalf("transitions = %d evals = %d", len(st.Transitions), st.Evals)
	}
}

// BenchmarkHealthEval pins rule-set evaluation at 10 and 100 rules over a
// catalog-sized sample set: the tick runs at scrape cadence (seconds), so
// anything in the microseconds is free.
func BenchmarkHealthEval(b *testing.B) {
	for _, n := range []int{10, 100} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			src := newFakeSource()
			for name := range obs.Declared() {
				src.set(name, 1)
			}
			var sb strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&sb, `
rule r%d {
	component = c%d
	severity = warning
	expr = gsalert_delivery_queue_depth > %d
}`, i, i%4, i)
			}
			rs := mustRules2(b, sb.String())
			clock := newTickClock()
			e := NewEngine(src, rs, Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.TickAt(clock.Advance(time.Second))
			}
		})
	}
}

func mustRules2(tb testing.TB, src string) *RuleSet {
	tb.Helper()
	rs, err := ParseRules(src)
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}
