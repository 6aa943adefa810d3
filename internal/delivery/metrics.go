package delivery

import (
	"time"

	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/qos"
)

// Metrics are the pipeline's externally visible counters and histograms,
// built on internal/metrics so the experiment harness renders them in the
// same tables as every other subsystem.
type Metrics struct {
	// Enqueued counts notifications accepted by Enqueue.
	Enqueued metrics.Counter
	// Delivered counts notifications successfully handed to a sink.
	Delivered metrics.Counter
	// Parked counts notifications returned to a mailbox because no sink
	// was attached or the sink failed.
	Parked metrics.Counter
	// Deferred counts notifications parked by QoS admission control
	// (over-quota normal-class traffic): delayed, redelivered by the retry
	// loop or the next attach.
	Deferred metrics.Counter
	// Retried counts notifications parked after a failed delivery attempt
	// (a subset of Parked).
	Retried metrics.Counter
	// Dropped counts notifications evicted from a full mailbox — the only
	// counter representing actual loss.
	Dropped metrics.Counter
	// Recovered counts notifications restored from mailbox WALs at start.
	Recovered metrics.Counter
	// Batches counts delivery flushes.
	Batches metrics.Counter
	// DeliveredByClass splits Delivered by QoS class.
	DeliveredByClass [qos.NumClasses]metrics.Counter
	// ClassLatency samples end-to-end delivery latency (enqueue → sink,
	// including parked dwell time) per QoS class. Lock-free: it sits on the
	// per-notification flush path of every shard worker.
	ClassLatency [qos.NumClasses]metrics.LatencyHistogram
	// FlushLatency samples sink round-trip time per flush.
	FlushLatency metrics.LatencyHistogram
	// Batched counts the notifications those flushes carried, delivered or
	// not: Batched / Batches is the mean batch size.
	Batched metrics.Counter
}

// noteFlush accounts one sink call that carried n notifications and took d.
func (m *Metrics) noteFlush(n int, d time.Duration) {
	m.FlushLatency.Observe(d)
	m.Batched.Add(int64(n))
	m.Batches.Inc()
}

// ClassSnapshot is the per-class slice of a Snapshot.
type ClassSnapshot struct {
	Class     string
	Delivered int64
	// P50 and P99 are end-to-end delivery latency quantiles (bucket upper
	// bounds, exact to within 2x).
	P50 time.Duration
	P99 time.Duration
	// P50Text and P99Text render the quantiles human-readable, for the
	// JSON stats endpoint (the raw fields serialize as nanoseconds).
	P50Text string
	P99Text string
}

// Snapshot is a point-in-time copy of the counters, convenient for tests
// and stat dumps.
type Snapshot struct {
	Enqueued  int64
	Delivered int64
	Parked    int64
	Deferred  int64
	Retried   int64
	Dropped   int64
	Recovered int64
	Batches   int64
	Classes   [qos.NumClasses]ClassSnapshot
}

// Snapshot captures the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Enqueued:  m.Enqueued.Value(),
		Delivered: m.Delivered.Value(),
		Parked:    m.Parked.Value(),
		Deferred:  m.Deferred.Value(),
		Retried:   m.Retried.Value(),
		Dropped:   m.Dropped.Value(),
		Recovered: m.Recovered.Value(),
		Batches:   m.Batches.Value(),
	}
	for c := 0; c < qos.NumClasses; c++ {
		p50 := m.ClassLatency[c].Quantile(0.5)
		p99 := m.ClassLatency[c].Quantile(0.99)
		s.Classes[c] = ClassSnapshot{
			Class:     qos.Class(c).String(),
			Delivered: m.DeliveredByClass[c].Value(),
			P50:       p50,
			P99:       p99,
			P50Text:   p50.String(),
			P99Text:   p99.String(),
		}
	}
	return s
}
