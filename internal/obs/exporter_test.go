package obs

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gzSink is a test HTTP sink that decompresses received blocks and can be
// scripted to fail or block.
type gzSink struct {
	mu       sync.Mutex
	blocks   []string
	failNext atomic.Int64  // fail this many requests with 500
	gate     chan struct{} // when non-nil, requests wait on it
}

func (s *gzSink) handler(w http.ResponseWriter, r *http.Request) {
	if s.gate != nil {
		<-s.gate
	}
	if s.failNext.Add(-1) >= 0 {
		http.Error(w, "down", http.StatusInternalServerError)
		return
	}
	if ce := r.Header.Get("Content-Encoding"); ce != "gzip" {
		http.Error(w, "want gzip, got "+ce, http.StatusBadRequest)
		return
	}
	zr, err := gzip.NewReader(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.blocks = append(s.blocks, string(body))
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *gzSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

func (s *gzSink) last() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.blocks) == 0 {
		return ""
	}
	return s.blocks[len(s.blocks)-1]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestExporterPushesSnapshots drives the happy path end to end: the sink
// receives gzip'd Prometheus text containing the exporter's own
// self-monitoring series, and a second snapshot arrives on the next tick.
func TestExporterPushesSnapshots(t *testing.T) {
	sink := &gzSink{}
	sink.failNext.Store(0)
	srv := httptest.NewServer(http.HandlerFunc(sink.handler))
	defer srv.Close()

	reg := NewRegistry()
	reg.Func(td(KindGauge, "gsalert_test_static", "Static test gauge."), func() float64 { return 4 })
	exp, err := NewExporter(reg, ExporterConfig{URL: srv.URL, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two pushed snapshots", func() bool { return sink.count() >= 2 })
	exp.Close()

	body := sink.last()
	for _, want := range []string{
		"gsalert_test_static 4",
		"gsalert_exporter_scrapes_total",
		"gsalert_exporter_sent_total",
		"gsalert_exporter_queue_depth",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("pushed block missing %q:\n%s", want, body)
		}
	}
	if exp.m.Sent.Value() < 2 {
		t.Errorf("Sent = %d, want >= 2", exp.m.Sent.Value())
	}
	if exp.m.Dropped.Value() != 0 {
		t.Errorf("Dropped = %d, want 0", exp.m.Dropped.Value())
	}
}

// TestExporterRetriesWithBackoff scripts two 500s before the sink
// recovers: the first block must still arrive, with the attempts visible
// in the self-monitoring counters.
func TestExporterRetriesWithBackoff(t *testing.T) {
	sink := &gzSink{}
	sink.failNext.Store(2)
	srv := httptest.NewServer(http.HandlerFunc(sink.handler))
	defer srv.Close()

	reg := NewRegistry()
	exp, err := NewExporter(reg, ExporterConfig{
		URL:        srv.URL,
		Interval:   5 * time.Millisecond,
		MaxRetries: 3,
		RetryBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first block eats both 500s, retries, and lands; later blocks
	// sail through.
	waitFor(t, "first delivered block", func() bool { return sink.count() >= 1 })
	exp.Close()

	m := &exp.m
	if m.Sent.Value() < 1 {
		t.Errorf("Sent = %d, want >= 1", m.Sent.Value())
	}
	if m.SendErrors.Value() != 2 {
		t.Errorf("SendErrors = %d, want 2", m.SendErrors.Value())
	}
	if m.Retries.Value() != 2 {
		t.Errorf("Retries = %d, want 2", m.Retries.Value())
	}
	if m.Dropped.Value() != 0 {
		t.Errorf("Dropped = %d, want 0", m.Dropped.Value())
	}
}

// TestExporterDropsOldestWhenQueueFull blocks the sink so snapshots pile
// up against the bounded queue; the oldest blocks must be evicted (counted
// in Dropped) while the pipeline keeps accepting fresh ones.
func TestExporterDropsOldestWhenQueueFull(t *testing.T) {
	sink := &gzSink{gate: make(chan struct{})}
	srv := httptest.NewServer(http.HandlerFunc(sink.handler))
	defer srv.Close()

	reg := NewRegistry()
	exp, err := NewExporter(reg, ExporterConfig{
		URL:       srv.URL,
		Interval:  2 * time.Millisecond,
		QueueSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One block occupies the sender (blocked on the gate), two fill the
	// queue; every further snapshot must evict.
	waitFor(t, "queue eviction", func() bool { return exp.m.Dropped.Value() > 0 })
	close(sink.gate) // release the sink so Close can drain
	exp.Close()

	m := &exp.m
	if m.Sent.Value() == 0 {
		t.Errorf("Sent = 0, want > 0 (queue must drain once the sink recovers)")
	}
	if m.Scrapes.Value() <= m.Sent.Value() {
		t.Errorf("Scrapes = %d, Sent = %d: eviction should have shed some snapshots",
			m.Scrapes.Value(), m.Sent.Value())
	}
}

func TestExporterRejectsEmptyURL(t *testing.T) {
	if _, err := NewExporter(NewRegistry(), ExporterConfig{}); err == nil {
		t.Fatal("expected error for missing sink URL")
	}
}
