package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyBuckets is one bucket per power-of-two nanosecond magnitude:
// bucket i holds durations d with bits.Len64(ns(d)) == i, i.e. the range
// [2^(i-1), 2^i). 64 buckets cover 1ns to ~292y.
const latencyBuckets = 64

// LatencyHistogram is a lock-free fixed-bucket latency histogram for hot
// paths: Observe is two atomic adds, with no allocation and no mutex, so
// per-notification recording under heavy concurrency never serialises the
// delivery workers. Quantiles are extracted from power-of-two buckets and
// reported as the bucket's upper bound, so a quantile is exact to within a
// factor of two — plenty for "p99 stays bounded" assertions and ops
// dashboards, at 512 bytes per histogram regardless of sample count.
//
// Readers (Quantile, Mean, Count) are safe to call concurrently with
// writers; a snapshot taken mid-storm may be internally skewed by in-flight
// observations, which monitoring tolerates. The zero value is ready to use.
type LatencyHistogram struct {
	counts [latencyBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // total nanoseconds
	// exemplars holds the per-bucket trace-ID exemplar set, allocated
	// lazily on the first ObserveExemplar so histograms that never see a
	// traced sample stay at 512 bytes and Observe stays two atomic adds.
	exemplars atomic.Pointer[exemplarSet]
}

// exemplarSet retains the most recent sampled trace ID per bucket — the
// OpenMetrics `# {trace_id="..."}` annotations internal/obs renders under
// content negotiation, linking a latency bucket to the span tree that
// landed in it.
type exemplarSet struct {
	ids [latencyBuckets]atomic.Pointer[string]
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// upperBound is the inclusive top of a bucket's range.
func upperBound(i int) time.Duration {
	if i >= 62 {
		return time.Duration(int64(^uint64(0) >> 1)) // avoid overflow
	}
	return time.Duration((int64(1) << (i + 1)) - 1)
}

// Observe records one latency sample.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// ObserveExemplar records one latency sample and, when traceID is
// non-empty, retains it as the bucket's exemplar (last writer wins). The
// exemplar store is one atomic pointer swap on top of Observe, so traced
// delivery flushes stay lock-free.
func (h *LatencyHistogram) ObserveExemplar(d time.Duration, traceID string) {
	h.Observe(d)
	if traceID == "" {
		return
	}
	set := h.exemplars.Load()
	if set == nil {
		set = &exemplarSet{}
		if !h.exemplars.CompareAndSwap(nil, set) {
			set = h.exemplars.Load()
		}
	}
	set.ids[bucketOf(d)].Store(&traceID)
}

// Exemplar reports the retained trace ID for the bucket whose inclusive
// upper bound is upper ("" when the bucket never saw a traced sample).
// Safe to call concurrently with observers — the exposition renderer
// reads exemplars mid-scrape.
func (h *LatencyHistogram) Exemplar(upper time.Duration) string {
	set := h.exemplars.Load()
	if set == nil {
		return ""
	}
	for i := 0; i < latencyBuckets; i++ {
		if upperBound(i) == upper {
			if id := set.ids[i].Load(); id != nil {
				return *id
			}
			return ""
		}
	}
	return ""
}

// Count reports recorded samples.
func (h *LatencyHistogram) Count() int64 { return h.count.Load() }

// Sum reports the total observed latency across all samples — the `_sum`
// series of the histogram's Prometheus exposition.
func (h *LatencyHistogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Buckets walks the occupied buckets in ascending bound order, calling f
// with each bucket's inclusive upper bound and the CUMULATIVE sample count
// up to and including it — the `le`/`_bucket` shape of a Prometheus
// histogram. Cumulative counts are monotonically non-decreasing by
// construction even while writers race the sweep (each per-bucket term is
// non-negative). Returns the total accumulated by the sweep, which callers
// should prefer over Count() for a `_count` consistent with the buckets.
func (h *LatencyHistogram) Buckets(f func(upper time.Duration, cumulative int64)) int64 {
	var cum int64
	for i := 0; i < latencyBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		f(upperBound(i), cum)
	}
	return cum
}

// Quantile reports an upper bound on the q-th (0..1) latency quantile: the
// top of the bucket containing the nearest-rank sample. Returns 0 when
// empty.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total))) // nearest rank
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < latencyBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			return upperBound(i)
		}
	}
	return upperBound(latencyBuckets - 1)
}
