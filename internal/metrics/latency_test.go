package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyHistogramBasics(t *testing.T) {
	var h LatencyHistogram
	if h.Count() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("zero value not empty")
	}
	h.Observe(10 * time.Microsecond)
	h.Observe(20 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	// The p50 sample is 20µs; the bucket upper bound is within 2x above it.
	p50 := h.Quantile(0.5)
	if p50 < 20*time.Microsecond || p50 > 40*time.Microsecond {
		t.Errorf("p50 = %v, want in [20µs, 40µs]", p50)
	}
	// The max sample is 5ms; its bucket tops out below 10ms.
	if mx := h.Quantile(1); mx < 5*time.Millisecond || mx > 10*time.Millisecond {
		t.Errorf("max = %v, want in [5ms, 10ms]", mx)
	}
}

func TestLatencyHistogramEdges(t *testing.T) {
	var h LatencyHistogram
	h.Observe(0)
	h.Observe(-time.Second) // clamped to 0
	h.Observe(time.Nanosecond)
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q > time.Nanosecond {
		t.Errorf("p50 of near-zero samples = %v", q)
	}
	// Quantile inputs outside [0,1] clamp instead of panicking.
	_ = h.Quantile(-1)
	_ = h.Quantile(2)
}

func TestLatencyHistogramQuantileOrdering(t *testing.T) {
	var h LatencyHistogram
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second)
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms bucket", p50)
	}
	if p99 < time.Second || p99 > 2*time.Second {
		t.Errorf("p99 = %v, want ~1s bucket", p99)
	}
	if p50 >= p99 {
		t.Errorf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}
}

func TestLatencyHistogramExemplars(t *testing.T) {
	var h LatencyHistogram
	if got := h.Exemplar(upperBound(10)); got != "" {
		t.Fatalf("fresh histogram has exemplar %q", got)
	}
	h.ObserveExemplar(10*time.Microsecond, "aaaa")
	h.ObserveExemplar(10*time.Microsecond, "bbbb") // same bucket: last wins
	h.ObserveExemplar(5*time.Millisecond, "cccc")
	h.ObserveExemplar(time.Second, "") // untraced: counted, no exemplar
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if got := h.Exemplar(upperBound(bucketOf(10 * time.Microsecond))); got != "bbbb" {
		t.Errorf("10µs bucket exemplar = %q, want bbbb", got)
	}
	if got := h.Exemplar(upperBound(bucketOf(5 * time.Millisecond))); got != "cccc" {
		t.Errorf("5ms bucket exemplar = %q, want cccc", got)
	}
	if got := h.Exemplar(upperBound(bucketOf(time.Second))); got != "" {
		t.Errorf("untraced bucket has exemplar %q", got)
	}
	if got := h.Exemplar(time.Duration(12345)); got != "" {
		t.Errorf("non-bucket bound returned %q", got)
	}
}

// TestExemplarReadDuringObserve is the -race exercise for the exemplar
// path: scrape-side Exemplar reads race ObserveExemplar writers, exactly
// what happens when an OpenMetrics scrape lands mid-delivery-storm.
func TestExemplarReadDuringObserve(t *testing.T) {
	var h LatencyHistogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Buckets(func(upper time.Duration, _ int64) {
					_ = h.Exemplar(upper)
				})
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				h.ObserveExemplar(time.Duration(w*1000+i)*time.Microsecond, "deadbeef")
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

// TestLatencyHistogramConcurrent is the -race exercise: many writers, a
// quantile/mean reader in flight, exact final count.
func TestLatencyHistogramConcurrent(t *testing.T) {
	var h LatencyHistogram
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A reader hammering quantiles while writers observe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Quantile(0.99)
				_ = h.Count()
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Microsecond)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
}

// BenchmarkExemplarObserve prices the exemplar-carrying histogram observe
// against the plain one: the delivery pipeline calls ObserveExemplar for
// sampled notifications and Observe otherwise, so the delta is what
// trace-correlated latency buckets cost on the sampled path.
func BenchmarkExemplarObserve(b *testing.B) {
	b.Run("observe", func(b *testing.B) {
		var h LatencyHistogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(3 * time.Millisecond)
		}
	})
	b.Run("exemplar", func(b *testing.B) {
		var h LatencyHistogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveExemplar(3*time.Millisecond, "0af7651916cd43dd8448eb211c80319c")
		}
	})
}
