package logging

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/trace"
)

// fixedClock steps a deterministic clock by 1ms per call.
func fixedClock() func() time.Time {
	t := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestLevels(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
	}{
		{"debug", LevelDebug}, {"info", LevelInfo}, {"", LevelInfo},
		{"warn", LevelWarn}, {"warning", LevelWarn}, {"error", LevelError}, {"off", levelOff},
	} {
		got, err := ParseLevel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
	if LevelDebug >= LevelInfo || LevelInfo >= LevelWarn || LevelWarn >= LevelError {
		t.Error("level ordering broken")
	}
	for _, l := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		back, err := ParseLevel(l.String())
		if err != nil || back != l {
			t.Errorf("round trip %v → %q → %v, %v", l, l.String(), back, err)
		}
	}
}

func TestLevelFiltering(t *testing.T) {
	r := NewRecorder(Config{Level: LevelWarn})
	lg := r.For("core")
	lg.Debug("nope")
	lg.Info("nope")
	lg.Warn("kept")
	lg.Error("kept")
	if got := r.Emitted(); got != 2 {
		t.Fatalf("emitted %d records at warn level, want 2", got)
	}
}

func TestNilLoggerAndRecorder(t *testing.T) {
	var lg *Logger
	lg.Info("ignored")
	lg.WarnCtx(trace.Context{}, "ignored")
	var r *Recorder
	if r.For("x") != nil {
		t.Error("nil recorder returned a live logger")
	}
	if r.Snapshot() != nil || r.Stats() != nil || r.Components() != nil {
		t.Error("nil recorder snapshot not empty")
	}
}

func TestRingDropOldest(t *testing.T) {
	r := NewRecorder(Config{RingSize: 16, Clock: fixedClock()})
	lg := r.For("core")
	for i := 0; i < 100; i++ {
		lg.Info(fmt.Sprintf("m%d", i))
	}
	recs := r.Snapshot()
	if len(recs) != 16 {
		t.Fatalf("ring retained %d records, want 16", len(recs))
	}
	// Drop-oldest: the retained window is the most recent records.
	for _, rec := range recs {
		if rec.Seq <= 100-16 {
			t.Errorf("retained seq %d predates the drop-oldest window", rec.Seq)
		}
	}
	if got := r.dropped.Load(); got != 100-16 {
		t.Errorf("dropped %d, want %d", got, 100-16)
	}
	st := r.Stats()
	if len(st) != 1 || st[0].Occupancy != 16 || st[0].Capacity != 16 || st[0].Emitted != 100 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSnapshotOrderAndTraceID(t *testing.T) {
	r := NewRecorder(Config{Clock: fixedClock()})
	ctx := trace.MustParse("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	r.For("b").Info("b1")
	r.For("a").WarnCtx(ctx, "a1")
	r.For("b").Warn("b2")
	r.For("a").Info("a2")
	recs := r.Snapshot()
	var got []string
	for _, rec := range recs {
		got = append(got, rec.Component+"/"+rec.Msg)
	}
	want := "a/a1 a/a2 b/b1 b/b2"
	if strings.Join(got, " ") != want {
		t.Fatalf("snapshot order %q, want %q", strings.Join(got, " "), want)
	}
	if recs[0].TraceID != ctx.TraceID() {
		t.Errorf("trace ID %q not carried, want %q", recs[0].TraceID, ctx.TraceID())
	}
	if recs[1].TraceID != "" {
		t.Errorf("record without context carries trace ID %q", recs[1].TraceID)
	}
}

func TestSinkAndRateLimit(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(1_700_000_000, 0)
	r := NewRecorder(Config{
		Sink: &buf, RateLimit: 1, RateBurst: 2,
		Clock: func() time.Time { return clock },
	})
	lg := r.For("core")
	for i := 0; i < 5; i++ {
		lg.Info("burst")
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Fatalf("sink got %d lines within one instant, want burst of 2", lines)
	}
	if got := r.suppressed.Load(); got != 3 {
		t.Fatalf("suppressed %d, want 3", got)
	}
	// All five still landed in the ring: the limiter only guards the sink.
	if got := len(r.Snapshot()); got != 5 {
		t.Fatalf("ring holds %d, want 5", got)
	}
	// A second elapses: one token refills.
	clock = clock.Add(time.Second)
	lg.Warn("later")
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("sink got %d lines after refill, want 3", got)
	}
	line := strings.Split(buf.String(), "\n")[0]
	for _, want := range []string{"level=info", "component=core", `msg="burst"`} {
		if !strings.Contains(line, want) {
			t.Errorf("sink line %q missing %s", line, want)
		}
	}
}

func TestFlightDumpRoundTripAndDeterminism(t *testing.T) {
	build := func() *FlightRecorder {
		r := NewRecorder(Config{Clock: fixedClock()})
		ctx := trace.MustParse("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
		r.For("core").WarnCtx(ctx, "admitted", String("client", "rt"), Int("events", 3))
		r.For("delivery").Warn("deferred", String("client", "nm"))
		r.For("replica").Info("promoted")
		return NewFlightRecorder(FlightConfig{
			Recorder: r,
			Stats:    func() any { return map[string]int{"events": 3} },
			TraceIDs: func() []string { return []string{"beef", "abad"} },
		})
	}
	a, err := build().DumpJSONL("critical:replica")
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().DumpJSONL("critical:replica")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("identical state produced differing bundles:\n%s\nvs\n%s", a, b)
	}
	d, err := ParseJSONL(a)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "critical:replica" || len(d.Records) != 3 {
		t.Fatalf("parsed dump %+v", d)
	}
	if got := d.Components(); strings.Join(got, ",") != "core,delivery,replica" {
		t.Fatalf("components %v", got)
	}
	if strings.Join(d.TraceIDs, ",") != "abad,beef" {
		t.Fatalf("trace IDs not sorted: %v", d.TraceIDs)
	}
	if !bytes.Contains(d.Stats, []byte(`"events":3`)) {
		t.Fatalf("stats payload lost: %s", d.Stats)
	}
	if _, err := ParseJSONL(nil); err == nil {
		t.Error("ParseJSONL accepted an empty bundle")
	}
}

func TestDumpToDir(t *testing.T) {
	r := NewRecorder(Config{Clock: fixedClock()})
	r.For("core").Error("boom")
	fr := NewFlightRecorder(FlightConfig{Recorder: r, Dir: t.TempDir()})
	path, err := fr.DumpToDir("manual")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, ".jsonl") || fr.Dumps() != 1 {
		t.Fatalf("path %q dumps %d", path, fr.Dumps())
	}
	noDir := NewFlightRecorder(FlightConfig{Recorder: r})
	if _, err := noDir.DumpToDir("manual"); err == nil {
		t.Error("DumpToDir without a directory succeeded")
	}
}

// TestConcurrentWritesDuringDump hammers the rings from many goroutines
// while dumps snapshot them — the health-triggered capture path. Run
// under -race this proves a capture never blocks or tears an emitter.
func TestConcurrentWritesDuringDump(t *testing.T) {
	r := NewRecorder(Config{RingSize: 64})
	fr := NewFlightRecorder(FlightConfig{Recorder: r})
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		started.Add(1)
		go func(g int) {
			defer wg.Done()
			lg := r.For(fmt.Sprintf("comp%d", g%2))
			lg.Info("start")
			started.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lg.Info("spin", Int("i", int64(i)))
			}
		}(g)
	}
	started.Wait()
	for i := 0; i < 50; i++ {
		raw, err := fr.DumpJSONL("manual")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseJSONL(raw); err != nil {
			t.Fatalf("dump %d unparseable: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if r.Emitted() == 0 {
		t.Fatal("no records emitted under concurrency")
	}
}

// BenchmarkLogRecord prices one log call in the three postures that matter:
// "disabled" (the record is below the effective level — the always-on cost
// every call site pays), "ring" (emitted into the lock-free flight ring
// with no sink attached — the production default), and "sink" (ring plus a
// rendered logfmt line on an io.Discard writer — the stderr-shaped cost
// without terminal I/O noise).
func BenchmarkLogRecord(b *testing.B) {
	run := func(b *testing.B, sink io.Writer, debug bool) {
		lg := NewRecorder(Config{Level: LevelInfo, Sink: sink}).For("delivery")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if debug {
				lg.Debug("delivery flushed", String("client", "u1"), Int("batch", 32))
			} else {
				lg.Info("delivery flushed", String("client", "u1"), Int("batch", 32))
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil, true) })
	b.Run("ring", func(b *testing.B) { run(b, nil, false) })
	b.Run("sink", func(b *testing.B) { run(b, io.Discard, false) })
}
