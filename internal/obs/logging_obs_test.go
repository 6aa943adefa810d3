package obs

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/metrics"
)

// loggingClock steps a deterministic clock by 1ms per call.
func loggingClock() func() time.Time {
	t := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// buildLoggingRegistry wires the gsalert_logging_* catalog plus an
// exemplar-bearing histogram deterministically, for golden-file pinning of
// both exposition variants.
func buildLoggingRegistry() (*Registry, *logging.Recorder) {
	r := NewRegistry()
	rec := logging.NewRecorder(logging.Config{RingSize: 8, Clock: loggingClock()})
	core := rec.For("core")
	core.Info("published", logging.String("client", "rt"))
	core.Warn("deferred")
	for i := 0; i < 12; i++ {
		rec.For("delivery").Info("flush") // overflows the size-8 ring: drops
	}
	RegisterLogging(r, rec)
	fr := logging.NewFlightRecorder(logging.FlightConfig{Recorder: rec})
	_, _ = fr.Dump("manual")
	RegisterFlight(r, fr)
	var h metrics.LatencyHistogram
	h.ObserveExemplar(100*time.Nanosecond, "0af7651916cd43dd8448eb211c80319c")
	h.ObserveExemplar(100*time.Nanosecond, "b7ad6b7169203331aaaabbbbccccdddd")
	h.ObserveExemplar(3*time.Microsecond, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.Observe(50 * time.Millisecond) // untraced bucket: no exemplar
	r.Histogram(td(KindHistogram, "gsalert_test_exemplar_seconds", "Latencies with trace-ID exemplars."), &h, L("class", "normal"))
	return r, rec
}

func renderOpenMetrics(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	return buf.String()
}

func checkGolden(t *testing.T, got, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenLogging pins the gsalert_logging_* catalog's text exposition.
// The default format never carries exemplars, so this file has none even
// though the histogram retains trace IDs.
func TestGoldenLogging(t *testing.T) {
	r, _ := buildLoggingRegistry()
	got := render(t, r)
	if strings.Contains(got, "trace_id=") {
		t.Fatalf("text exposition leaked exemplar annotations:\n%s", got)
	}
	checkExposition(t, got)
	checkGolden(t, got, "golden_logging.prom")
}

// TestGoldenOpenMetrics pins the OpenMetrics variant: same series, plus
// `# {trace_id="..."}` bucket annotations and the `# EOF` terminator.
func TestGoldenOpenMetrics(t *testing.T) {
	r, _ := buildLoggingRegistry()
	got := renderOpenMetrics(t, r)
	if !strings.HasSuffix(got, "# EOF\n") {
		t.Fatalf("OpenMetrics output missing # EOF terminator:\n%s", got)
	}
	if !strings.Contains(got, `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"}`) {
		t.Fatalf("OpenMetrics output missing exemplar annotation:\n%s", got)
	}
	// Same bucket saw two traced samples: last writer wins.
	if strings.Contains(got, "0af7651916cd43dd8448eb211c80319c") {
		t.Errorf("displaced exemplar still rendered:\n%s", got)
	}
	checkExposition(t, stripOpenMetrics(got))
	checkGolden(t, got, "golden_logging.om")
}

// stripOpenMetrics removes the exemplar annotations and the EOF line so
// checkExposition can validate the underlying series.
func stripOpenMetrics(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "# EOF" {
			continue
		}
		if i := strings.Index(line, " # {"); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestOpenMetricsMatchesTextModuloAnnotations asserts the two variants are
// the same exposition: stripping annotations and the terminator from the
// OpenMetrics output yields the text output byte for byte.
func TestOpenMetricsMatchesTextModuloAnnotations(t *testing.T) {
	r, _ := buildLoggingRegistry()
	if got, want := stripOpenMetrics(renderOpenMetrics(t, r)), render(t, r); got != want {
		t.Errorf("variants diverge beyond annotations:\n--- openmetrics (stripped) ---\n%s\n--- text ---\n%s", got, want)
	}
}

// TestHandlerContentNegotiation drives the /metrics handler both ways: a
// plain scrape gets text-0.0.4 with no exemplars, an OpenMetrics Accept
// header gets the annotated variant.
func TestHandlerContentNegotiation(t *testing.T) {
	r, _ := buildLoggingRegistry()
	h := Handler(r)

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rw.Header().Get("Content-Type"); ct != TextContentType {
		t.Errorf("default content type %q", ct)
	}
	if body := rw.Body.String(); strings.Contains(body, "# EOF") || strings.Contains(body, "trace_id=") {
		t.Errorf("default scrape carries OpenMetrics extras:\n%s", body)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if ct := rw.Header().Get("Content-Type"); ct != OpenMetricsContentType {
		t.Errorf("negotiated content type %q", ct)
	}
	body := rw.Body.String()
	if !strings.HasSuffix(body, "# EOF\n") || !strings.Contains(body, `# {trace_id="`) {
		t.Errorf("negotiated scrape missing OpenMetrics extras:\n%s", body)
	}
}

// TestFlightHandler pulls a bundle through the /debug/flightrecorder
// endpoint and round-trips it through the parser, the `gs-client logs`
// path.
func TestFlightHandler(t *testing.T) {
	rec := logging.NewRecorder(logging.Config{Clock: loggingClock()})
	rec.For("core").Error("boom")
	fr := logging.NewFlightRecorder(logging.FlightConfig{Recorder: rec})
	h := FlightHandler(fr)

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if ct := rw.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	d, err := logging.ParseJSONL(rw.Body.Bytes())
	if err != nil {
		t.Fatalf("bundle unparseable: %v", err)
	}
	if d.Reason != "manual" || len(d.Records) != 1 || d.Records[0].Msg != "boom" {
		t.Errorf("bundle %+v records %+v", d, d.Records)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/flightrecorder?reason=drill", nil))
	if d, err := logging.ParseJSONL(rw.Body.Bytes()); err != nil || d.Reason != "drill" {
		t.Errorf("reason override: %+v, %v", d, err)
	}
	if fr.Dumps() != 2 {
		t.Errorf("dumps = %d, want 2", fr.Dumps())
	}
}

// TestScrapeDuringConcurrentLogWrites is the -race exercise for the
// logging catalog: both exposition variants render while emitters hammer
// the rings — exactly a scrape landing mid-incident.
func TestScrapeDuringConcurrentLogWrites(t *testing.T) {
	r := NewRegistry()
	rec := logging.NewRecorder(logging.Config{RingSize: 32})
	RegisterLogging(r, rec)
	var h metrics.LatencyHistogram
	r.Histogram(td(KindHistogram, "gsalert_scrape_race_seconds", "Race-test histogram."), &h, L("class", "normal"))

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		started.Add(1)
		go func(g int) {
			defer wg.Done()
			lg := rec.For([]string{"core", "delivery"}[g%2])
			lg.Info("start")
			started.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lg.Warn("spin", logging.Int("i", int64(i)))
				h.ObserveExemplar(time.Duration(i)*time.Microsecond, "deadbeefdeadbeefdeadbeefdeadbeef")
			}
		}(g)
	}
	started.Wait()
	for i := 0; i < 25; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := r.WriteOpenMetrics(&buf); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if rec.Emitted() == 0 {
		t.Fatal("no records emitted under concurrency")
	}
}
