package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// td builds an ad-hoc test family. Tests construct Descs directly instead
// of Declaring them, so the process-wide catalog holds production families
// only.
func td(k Kind, name, help string) *Desc { return &Desc{Name: name, Help: help, Kind: k} }

// buildFixedRegistry wires a registry whose exposition is fully
// deterministic: static counters and gauges (with label values exercising
// every escape), a histogram with known observations, and a collector
// emitting dynamic series.
func buildFixedRegistry() *Registry {
	r := NewRegistry()
	var c metrics.Counter
	c.Add(42)
	r.CounterValue(td(KindCounter, "gsalert_test_events_total", "Events with a backslash \\ and\nnewline in help."), &c)
	r.Func(td(KindCounter, "gsalert_test_routed_total", "Routed envelopes per link."), func() float64 { return 7 },
		L("link", `child"one`))
	r.Func(td(KindCounter, "gsalert_test_routed_total", "Routed envelopes per link."), func() float64 { return 3 },
		L("link", "path\\with\nodd chars"))
	r.Func(td(KindGauge, "gsalert_test_queue_depth", "Queue depth per shard and class."), func() float64 { return 5 },
		L("shard", "0"), L("class", "realtime"))
	r.Func(td(KindGauge, "gsalert_test_queue_depth", "Queue depth per shard and class."), func() float64 { return 1.5 },
		L("class", "bulk"), L("shard", "0")) // label order must not leak
	var h metrics.LatencyHistogram
	h.Observe(100 * time.Nanosecond)
	h.Observe(100 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(50 * time.Millisecond)
	r.Histogram(td(KindHistogram, "gsalert_test_latency_seconds", "Observed latencies."), &h, L("class", "normal"))
	r.Collect(func(c *Collector) {
		c.Emit(td(KindGauge, "gsalert_test_dynamic", "Dynamic per-scrape series."), 2, L("kind", "a"))
		c.Emit(td(KindGauge, "gsalert_test_dynamic", "Dynamic per-scrape series."), 9.25, L("kind", "b"))
		c.Emit(td(KindCounter, "gsalert_test_collected_total", "Collector-emitted counter."), 11)
	})
	RegisterTrace(r, buildFixedTraceCollector())
	return r
}

// buildFixedTraceCollector fills a tiny trace ring deterministically (fixed
// seed, fixed clock, sample-everything) and overflows it so every
// RegisterTrace series — spans, drops, occupancy, capacity — renders a
// stable nonzero-where-possible value in the golden file.
func buildFixedTraceCollector() *trace.Collector {
	col := trace.NewCollector(8)
	at := time.Unix(1700000000, 0)
	tr := trace.New(trace.Config{
		Service:    "test",
		SampleRate: 1,
		Seed:       99,
		Collector:  col,
		Clock:      func() time.Time { return at },
	})
	root := tr.StartRoot(trace.StagePublish)
	for i := 0; i < 11; i++ {
		tr.Record(root.Context(), trace.StageMatch, at, time.Millisecond, "normal")
	}
	root.Finish()
	return col
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// TestGolden pins the full text exposition — family ordering, HELP/TYPE
// lines, label sorting and escaping, histogram rendering — against
// testdata/golden.prom. Regenerate with `go test ./internal/obs -update`.
func TestGolden(t *testing.T) {
	got := render(t, buildFixedRegistry())
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
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExpositionWellFormed machine-checks the same output: line syntax,
// every series preceded by its HELP/TYPE, values parseable, histogram
// buckets cumulative and consistent with _count.
func TestExpositionWellFormed(t *testing.T) {
	checkExposition(t, render(t, buildFixedRegistry()))
}

// checkExposition validates Prometheus text format rules on out, including
// bucket monotonicity per histogram series.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	typed := map[string]string{} // family -> TYPE
	type histState struct {
		lastLe  float64
		lastCum int64
		infSeen bool
		inf     int64
	}
	hists := map[string]*histState{} // series key without le -> state
	counts := map[string]int64{}     // _count lines by series key
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := typed[parts[2]]; dup {
				t.Errorf("family %s has two TYPE lines", parts[2])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		name, labels, value := splitSample(t, line)
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			if _, ok := typed[name]; !ok {
				t.Errorf("series %s has no TYPE line", name)
			}
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, rest := extractLe(t, labels)
			key := strings.TrimSuffix(name, "_bucket") + rest
			st := hists[key]
			if st == nil {
				st = &histState{lastLe: -1}
				hists[key] = st
			}
			cum := int64(value)
			if le == "+Inf" {
				st.infSeen = true
				st.inf = cum
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("bad le %q in %q", le, line)
				}
				if f <= st.lastLe {
					t.Errorf("series %s: bucket bounds not increasing (%g after %g)", key, f, st.lastLe)
				}
				st.lastLe = f
			}
			if cum < st.lastCum {
				t.Errorf("series %s: cumulative counts decreased (%d after %d)", key, cum, st.lastCum)
			}
			st.lastCum = cum
		case strings.HasSuffix(name, "_count"):
			counts[strings.TrimSuffix(name, "_count")+labels] = int64(value)
		}
	}
	for key, st := range hists {
		if !st.infSeen {
			t.Errorf("series %s: no +Inf bucket", key)
		}
		if c, ok := counts[key]; !ok {
			t.Errorf("series %s: no _count line", key)
		} else if c != st.inf {
			t.Errorf("series %s: _count %d != +Inf bucket %d", key, c, st.inf)
		}
	}
}

// splitSample parses `name{labels} value` (labels optional), failing the
// test on malformed lines.
func splitSample(t *testing.T, line string) (name, labels string, value float64) {
	t.Helper()
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		t.Fatalf("malformed sample line: %q", line)
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	ident := line[:sp]
	if i := strings.IndexByte(ident, '{'); i >= 0 {
		if !strings.HasSuffix(ident, "}") {
			t.Fatalf("unterminated label block: %q", line)
		}
		return ident[:i], ident[i:], v
	}
	return ident, "", v
}

// extractLe pulls the le label out of a bucket label block and returns the
// remaining block (the histogram's series key).
func extractLe(t *testing.T, labels string) (le, rest string) {
	t.Helper()
	i := strings.Index(labels, `le="`)
	if i < 0 {
		t.Fatalf("bucket without le label: %q", labels)
	}
	tail := labels[i+len(`le="`):]
	j := strings.IndexByte(tail, '"')
	if j < 0 {
		t.Fatalf("unterminated le value: %q", labels)
	}
	le = tail[:j]
	// Drop the le pair: `{class="x",le="y"}` -> `{class="x"}`, `{le="y"}` -> "".
	rest = strings.Replace(labels[:i]+tail[j+1:], ",}", "}", 1)
	if rest == "{}" {
		rest = ""
	}
	return le, rest
}

func TestLabelEscaping(t *testing.T) {
	out := render(t, buildFixedRegistry())
	for _, want := range []string{
		`link="child\"one"`,
		`link="path\\with\nodd chars"`,
		`# HELP gsalert_test_events_total Events with a backslash \\ and\nnewline in help.`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\nodd") {
		t.Errorf("raw newline leaked into a label value:\n%s", out)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	out := render(t, buildFixedRegistry())
	// Registered as (class, shard) — must render sorted regardless.
	if !strings.Contains(out, `gsalert_test_queue_depth{class="bulk",shard="0"} 1.5`) {
		t.Errorf("labels not canonically sorted:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := map[string]func(r *Registry){
		"bad metric name": func(r *Registry) { r.Func(td(KindGauge, "7bad-name", "x"), func() float64 { return 0 }) },
		"bad label name":  func(r *Registry) { r.Func(td(KindGauge, "ok_name", "x"), func() float64 { return 0 }, L("0bad", "v")) },
		"reserved le":     func(r *Registry) { r.Func(td(KindGauge, "ok_name", "x"), func() float64 { return 0 }, L("le", "v")) },
		"duplicate series": func(r *Registry) {
			r.Func(td(KindGauge, "dup_name", "x"), func() float64 { return 0 }, L("a", "1"))
			r.Func(td(KindGauge, "dup_name", "x"), func() float64 { return 0 }, L("a", "1"))
		},
		"kind conflict": func(r *Registry) {
			r.Func(td(KindGauge, "mixed_name", "x"), func() float64 { return 0 })
			r.Func(td(KindCounter, "mixed_name", "x"), func() float64 { return 0 })
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn(NewRegistry())
		})
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{42, "42"},
		{-3, "-3"},
		{1.5, "1.5"},
		{0.0500032, "0.0500032"},
		{1e15, "1e+15"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestHistogramSpliceWithAndWithoutLabels(t *testing.T) {
	r := NewRegistry()
	var h1, h2 metrics.LatencyHistogram
	h1.Observe(time.Millisecond)
	h2.Observe(time.Second)
	r.Histogram(td(KindHistogram, "plain_hist_seconds", "No labels."), &h1)
	r.Histogram(td(KindHistogram, "labeled_hist_seconds", "With labels."), &h2, L("class", "bulk"))
	out := render(t, r)
	if !strings.Contains(out, `plain_hist_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("unlabelled histogram misrendered:\n%s", out)
	}
	if !strings.Contains(out, `labeled_hist_seconds_bucket{class="bulk",le="`) {
		t.Errorf("labelled histogram misrendered (le must splice after existing labels):\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("labeled_hist_seconds_sum{class=%q} ", "bulk")) {
		t.Errorf("labelled histogram missing _sum:\n%s", out)
	}
	checkExposition(t, out)
}
