package composite

import (
	"fmt"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
)

var t0 = time.Unix(1117584000, 0) // 2005-06-01

func ev(id string) *event.Event {
	return event.New(id, event.TypeDocumentsAdded,
		event.QName{Host: "H", Collection: "C"}, 1, nil, t0)
}

// harness builds an engine recording firings and registers one composite.
func harness(t *testing.T, src string) (*Engine, *[]Firing) {
	t.Helper()
	var got []Firing
	e := NewEngine(Config{Emit: func(f Firing) { got = append(got, f) }})
	c := profile.MustParseComposite(src)
	p, err := profile.NewComposite("comp", "alice", "H", c)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(p, t0); err != nil {
		t.Fatal(err)
	}
	return e, &got
}

func TestSequenceFiresInOrder(t *testing.T) {
	e, got := harness(t, `SEQUENCE (a = "1") THEN (b = "2") THEN (c = "3")`)
	e.OnPrimitive("comp", 0, ev("e1"), []string{"d1"}, t0)
	e.OnPrimitive("comp", 1, ev("e2"), []string{"d2"}, t0.Add(time.Second))
	if len(*got) != 0 {
		t.Fatalf("fired early: %+v", *got)
	}
	e.OnPrimitive("comp", 2, ev("e3"), []string{"d1", "d3"}, t0.Add(2*time.Second))
	if len(*got) != 1 {
		t.Fatalf("firings = %d", len(*got))
	}
	f := (*got)[0]
	if f.Kind != profile.CompositeSequence || f.ProfileID != "comp" || f.Owner != "alice" {
		t.Errorf("firing = %+v", f)
	}
	if len(f.Events) != 3 || f.Events[0].ID != "e1" || f.Events[2].ID != "e3" {
		t.Errorf("contributing events = %v", f.Events)
	}
	if len(f.DocIDs) != 3 {
		t.Errorf("docIDs = %v (want union d1,d2,d3)", f.DocIDs)
	}
	if n := e.Stats().LiveInstances; n != 0 {
		t.Errorf("live instances after completion = %d", n)
	}
}

func TestSequenceOutOfOrderStepIgnored(t *testing.T) {
	e, got := harness(t, `SEQUENCE (a = "1") THEN (b = "2")`)
	// Step 1 with no open instance: nothing to advance.
	e.OnPrimitive("comp", 1, ev("e1"), nil, t0)
	if len(*got) != 0 || e.Stats().LiveInstances != 0 {
		t.Fatalf("out-of-order step had effect: %+v", e.Stats())
	}
}

func TestSequenceDistinctEventsPerStep(t *testing.T) {
	// One event matching both steps must not complete the sequence alone.
	e, got := harness(t, `SEQUENCE (a = "1") THEN (a = "1")`)
	shared := ev("same")
	e.OnPrimitive("comp", 0, shared, nil, t0)
	e.OnPrimitive("comp", 1, shared, nil, t0)
	if len(*got) != 0 {
		t.Fatal("one event drove two steps")
	}
	e.OnPrimitive("comp", 1, ev("other"), nil, t0.Add(time.Second))
	if len(*got) != 1 {
		t.Fatalf("distinct second event did not fire (firings = %d)", len(*got))
	}
}

func TestSequenceWindowExpiry(t *testing.T) {
	e, got := harness(t, `SEQUENCE (a = "1") THEN (b = "2") WITHIN 1h`)
	e.OnPrimitive("comp", 0, ev("e1"), nil, t0)
	if n := e.Stats().LiveInstances; n != 1 {
		t.Fatalf("live = %d", n)
	}
	// Lazy expiry: the late step-1 match finds the instance dead.
	e.OnPrimitive("comp", 1, ev("e2"), nil, t0.Add(2*time.Hour))
	if len(*got) != 0 {
		t.Fatal("expired window fired")
	}
	st := e.Stats()
	if st.WindowsExpired != 1 || st.LiveInstances != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSequenceGCExpiresViaTick(t *testing.T) {
	e, _ := harness(t, `SEQUENCE (a = "1") THEN (b = "2") WITHIN 1h`)
	for i := 0; i < 10; i++ {
		e.OnPrimitive("comp", 0, ev(fmt.Sprintf("e%d", i)), nil, t0)
	}
	if n := e.Stats().LiveInstances; n != 10 {
		t.Fatalf("live = %d", n)
	}
	e.Tick(t0.Add(30 * time.Minute)) // nothing due
	if n := e.Stats().LiveInstances; n != 10 {
		t.Fatalf("live after idle tick = %d", n)
	}
	e.Tick(t0.Add(2 * time.Hour))
	st := e.Stats()
	if st.LiveInstances != 0 || st.WindowsExpired != 10 {
		t.Errorf("stats after GC tick = %+v", st)
	}
}

func TestSequenceInstanceCap(t *testing.T) {
	var got []Firing
	e := NewEngine(Config{MaxInstances: 3, Emit: func(f Firing) { got = append(got, f) }})
	c := profile.MustParseComposite(`SEQUENCE (a = "1") THEN (b = "2")`)
	p, _ := profile.NewComposite("comp", "alice", "H", c)
	if err := e.Register(p, t0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e.OnPrimitive("comp", 0, ev(fmt.Sprintf("e%d", i)), nil, t0)
	}
	st := e.Stats()
	if st.LiveInstances != 3 || st.InstancesEvicted != 2 {
		t.Errorf("stats = %+v", st)
	}
	// A step-1 match completes the three surviving instances.
	e.OnPrimitive("comp", 1, ev("fin"), nil, t0)
	if len(got) != 3 {
		t.Errorf("firings = %d, want 3", len(got))
	}
}

func TestCountFiresAtThreshold(t *testing.T) {
	e, got := harness(t, `COUNT 3 OF (a = "1")`)
	for i := 0; i < 7; i++ {
		e.OnPrimitive("comp", 0, ev(fmt.Sprintf("e%d", i)), []string{fmt.Sprintf("d%d", i)}, t0.Add(time.Duration(i)*time.Second))
	}
	if len(*got) != 2 {
		t.Fatalf("firings = %d, want 2 (7 matches / threshold 3)", len(*got))
	}
	f := (*got)[0]
	if f.Kind != profile.CompositeCount || len(f.Events) != 3 {
		t.Errorf("first firing = %+v", f)
	}
	if n := e.Stats().LiveInstances; n != 1 {
		t.Errorf("live = %d (one open accumulation with 1 leftover)", n)
	}
}

func TestCountWindowExpiry(t *testing.T) {
	e, got := harness(t, `COUNT 3 OF (a = "1") WITHIN 1h`)
	e.OnPrimitive("comp", 0, ev("e1"), nil, t0)
	e.OnPrimitive("comp", 0, ev("e2"), nil, t0.Add(time.Minute))
	// The window closes; the next match opens a fresh one.
	e.OnPrimitive("comp", 0, ev("e3"), nil, t0.Add(2*time.Hour))
	if len(*got) != 0 {
		t.Fatal("expired accumulation fired")
	}
	if st := e.Stats(); st.WindowsExpired != 1 {
		t.Errorf("stats = %+v", st)
	}
	e.OnPrimitive("comp", 0, ev("e4"), nil, t0.Add(2*time.Hour+time.Minute))
	e.OnPrimitive("comp", 0, ev("e5"), nil, t0.Add(2*time.Hour+2*time.Minute))
	if len(*got) != 1 {
		t.Fatalf("fresh window did not fire (firings = %d)", len(*got))
	}
	if evs := (*got)[0].Events; len(evs) != 3 || evs[0].ID != "e3" {
		t.Errorf("contributing = %v (stale events leaked in)", evs)
	}
}

func TestDigestFlushSchedule(t *testing.T) {
	e, got := harness(t, `DIGEST (a = "1") EVERY 24h`)
	e.OnPrimitive("comp", 0, ev("e1"), []string{"d1"}, t0.Add(time.Hour))
	e.OnPrimitive("comp", 0, ev("e2"), []string{"d2"}, t0.Add(2*time.Hour))
	e.Tick(t0.Add(3 * time.Hour)) // not due yet
	if len(*got) != 0 {
		t.Fatal("digest flushed early")
	}
	e.Tick(t0.Add(25 * time.Hour))
	if len(*got) != 1 {
		t.Fatalf("firings = %d", len(*got))
	}
	f := (*got)[0]
	if f.Kind != profile.CompositeDigest || len(f.Events) != 2 || len(f.DocIDs) != 2 {
		t.Errorf("digest firing = %+v", f)
	}
	// An empty period flushes nothing.
	e.Tick(t0.Add(50 * time.Hour))
	if len(*got) != 1 {
		t.Error("empty digest period produced a notification")
	}
	if st := e.Stats(); st.DigestFlushes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRemoveDropsState(t *testing.T) {
	e, _ := harness(t, `SEQUENCE (a = "1") THEN (b = "2")`)
	e.OnPrimitive("comp", 0, ev("e1"), nil, t0)
	if !e.Remove("comp") {
		t.Fatal("remove failed")
	}
	if e.Remove("comp") {
		t.Fatal("double remove succeeded")
	}
	if st := e.Stats(); st.LiveInstances != 0 {
		t.Errorf("live after remove = %d", st.LiveInstances)
	}
	// Matches for a removed profile are ignored.
	e.OnPrimitive("comp", 1, ev("e2"), nil, t0)
	if st := e.Stats(); st.Primitives != 1 {
		t.Errorf("primitives = %d (removed profile still consuming)", st.Primitives)
	}
}

func TestRegisterRejectsDuplicatesAndPrimitives(t *testing.T) {
	e, _ := harness(t, `COUNT 2 OF (a = "1")`)
	c := profile.MustParseComposite(`COUNT 2 OF (a = "1")`)
	p, _ := profile.NewComposite("comp", "alice", "H", c)
	if err := e.Register(p, t0); err == nil {
		t.Error("duplicate registration accepted")
	}
	prim := profile.NewUser("prim", "alice", "H", profile.MustParse(`a = "1"`))
	if err := e.Register(prim, t0); err == nil {
		t.Error("primitive profile accepted")
	}
}

// newBenchEngine builds an engine holding `live` open sequence instances
// spread over live/1000 three-step windowed sequence profiles (1000 open
// instances per profile, which is also the per-profile cap).
func newBenchEngine(b *testing.B, live int) (*Engine, []string) {
	b.Helper()
	const perDef = 1000
	defs := max(1, live/perDef)
	e := NewEngine(Config{MaxInstances: perDef, Emit: func(Firing) {}})
	c := profile.MustParseComposite(`SEQUENCE (a = "1") THEN (b = "2") THEN (c = "3") WITHIN 1h`)
	ids := make([]string, defs)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-comp-%d", i)
		p, err := profile.NewComposite(ids[i], "u", "H", c)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Register(p, t0); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < live; i++ {
		e.OnPrimitive(ids[i%defs], 0, ev("bench-ev"), nil, t0)
	}
	if got := e.Stats().LiveInstances; got != int64(defs*perDef) {
		b.Fatalf("live instances = %d, want %d", got, defs*perDef)
	}
	return e, ids
}

// BenchmarkCompositeEngine measures the composite engine at 10k, 100k and
// 1M live sequence instances (experiment E13): "ingest" is the state-
// machine throughput of step-0 matches (O(1) opens at the instance cap),
// "gc" is one full window-garbage-collection sweep (Tick) over every live
// instance.
func BenchmarkCompositeEngine(b *testing.B) {
	for _, live := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("instances=%d/ingest", live), func(b *testing.B) {
			e, ids := newBenchEngine(b, live)
			primitive := ev("bench-ev")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.OnPrimitive(ids[i%len(ids)], 0, primitive, nil, t0)
			}
		})
		b.Run(fmt.Sprintf("instances=%d/gc", live), func(b *testing.B) {
			e, _ := newBenchEngine(b, live)
			// Tick inside the window: a full sweep that expires nothing,
			// the steady-state GC cost.
			at := t0.Add(30 * time.Minute)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Tick(at)
			}
			b.StopTimer()
			if got := e.Stats().LiveInstances; got < int64(live) {
				b.Fatalf("GC dropped live instances: %d", got)
			}
		})
	}
}
