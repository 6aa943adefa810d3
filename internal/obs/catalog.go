package obs

import (
	"runtime"
	"strconv"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// This file declares every subsystem's families under the `gsalert_`
// namespace — each exactly once, as a Desc beside the value it reads — and
// wires them into a Registry. Each RegisterX is startup-time wiring; the
// actual reads happen per scrape. docs/OBSERVABILITY.md documents the
// resulting catalog.

// counterFamily declares a counter beside the live metrics.Counter field of
// a component's metrics struct M that it reads.
type counterFamily[M any] struct {
	d   *Desc
	get func(m *M) *metrics.Counter
}

func registerCounters[M any](r *Registry, m *M, fams []counterFamily[M]) {
	for _, f := range fams {
		r.CounterValue(f.d, f.get(m))
	}
}

type svcStats = core.ServiceStats

// serviceFamilies declares every family rendered from one
// core.ServiceStats snapshot — including the Composite*, Replica* and QoS*
// fields — each beside the field it reads.
var serviceFamilies = []struct {
	d   *Desc
	get func(s *svcStats) float64
}{
	{Declare(KindCounter, "gsalert_core_events_published_total", "Events published by local collection builds."), func(s *svcStats) float64 { return float64(s.EventsPublished) }},
	{Declare(KindCounter, "gsalert_core_events_received_total", "Events received via GDS dissemination."), func(s *svcStats) float64 { return float64(s.EventsReceived) }},
	{Declare(KindCounter, "gsalert_core_duplicates_dropped_total", "Duplicate events suppressed by the dedup window."), func(s *svcStats) float64 { return float64(s.DuplicatesDropped) }},
	{Declare(KindCounter, "gsalert_core_notifications_total", "Notifications enqueued to the delivery pipeline."), func(s *svcStats) float64 { return float64(s.Notifications) }},
	{Declare(KindCounter, "gsalert_core_notify_failures_total", "Notifications refused by the delivery pipeline."), func(s *svcStats) float64 { return float64(s.NotifyFailures) }},
	{Declare(KindCounter, "gsalert_core_aux_forwards_total", "Events forwarded over the GS network (aux profiles)."), func(s *svcStats) float64 { return float64(s.AuxForwards) }},
	{Declare(KindCounter, "gsalert_core_transforms_total", "Events renamed to a super-collection."), func(s *svcStats) float64 { return float64(s.Transforms) }},
	{Declare(KindCounter, "gsalert_core_cycle_refusals_total", "Aux-profile installs refused by the cycle guard."), func(s *svcStats) float64 { return float64(s.CycleRefusals) }},
	{Declare(KindCounter, "gsalert_core_aux_installs_sent_total", "Auxiliary profile installs sent to peers."), func(s *svcStats) float64 { return float64(s.AuxInstallsSent) }},
	{Declare(KindCounter, "gsalert_core_aux_cancels_sent_total", "Auxiliary profile cancels sent to peers."), func(s *svcStats) float64 { return float64(s.AuxCancelsSent) }},
	{Declare(KindCounter, "gsalert_core_broadcasts_sent_total", "Events handed to the GDS for dissemination."), func(s *svcStats) float64 { return float64(s.BroadcastsSent) }},
	{Declare(KindCounter, "gsalert_core_advertisements_sent_total", "Profile-digest advertisements sent (content routing)."), func(s *svcStats) float64 { return float64(s.AdvertisementsSent) }},
	{Declare(KindCounter, "gsalert_core_forwarding_failures_total", "Server-to-server forwards queued for retry."), func(s *svcStats) float64 { return float64(s.ForwardingFailures) }},
	{Declare(KindCounter, "gsalert_core_filter_seconds_total", "Cumulative local profile-filtering time."), func(s *svcStats) float64 { return s.FilterTime.Seconds() }},
	{Declare(KindCounter, "gsalert_core_receive_latency_seconds_total", "Cumulative transit latency of received events."), func(s *svcStats) float64 { return s.ReceiveLatency.Seconds() }},
	{Declare(KindCounter, "gsalert_core_receive_hops_total", "Cumulative relay hops of received events."), func(s *svcStats) float64 { return float64(s.ReceiveHops) }},
	{Declare(KindCounter, "gsalert_core_health_alerts_total", "Health-plane meta-alert events published into the pipeline."), func(s *svcStats) float64 { return float64(s.HealthAlerts) }},
	{Declare(KindCounter, "gsalert_composite_primitives_total", "Step matches consumed by composite state machines."), func(s *svcStats) float64 { return float64(s.CompositePrimitives) }},
	{Declare(KindCounter, "gsalert_composite_firings_total", "Synthesized composite notifications."), func(s *svcStats) float64 { return float64(s.CompositeFirings) }},
	{Declare(KindCounter, "gsalert_composite_digest_flushes_total", "Non-empty composite digest flushes."), func(s *svcStats) float64 { return float64(s.CompositeDigestFlushes) }},
	{Declare(KindCounter, "gsalert_composite_windows_expired_total", "Composite instances dropped by closed time windows."), func(s *svcStats) float64 { return float64(s.CompositeWindowsExpired) }},
	{Declare(KindGauge, "gsalert_composite_live_instances", "Currently open composite instances."), func(s *svcStats) float64 { return float64(s.CompositeLiveInstances) }},
	{Declare(KindGauge, "gsalert_replica_stream_seq", "Stream records sent (primary) or applied (standby)."), func(s *svcStats) float64 { return float64(s.ReplicaStreamSeq) }},
	{Declare(KindCounter, "gsalert_replica_streamed_total", "Replication records shipped or applied."), func(s *svcStats) float64 { return float64(s.ReplicaStreamed) }},
	{Declare(KindCounter, "gsalert_replica_dropped_total", "Replication records dropped while no standby was attached."), func(s *svcStats) float64 { return float64(s.ReplicaDropped) }},
	{Declare(KindCounter, "gsalert_replica_errors_total", "Replication stream transport or apply failures."), func(s *svcStats) float64 { return float64(s.ReplicaErrors) }},
	{Declare(KindCounter, "gsalert_replica_snapshots_total", "Full replication snapshots sent or applied."), func(s *svcStats) float64 { return float64(s.ReplicaSnapshots) }},
	{Declare(KindCounter, "gsalert_replica_resyncs_total", "Snapshot catch-ups after stream gaps."), func(s *svcStats) float64 { return float64(s.ReplicaResyncs) }},
	{Declare(KindGauge, "gsalert_replica_stream_lag", "Primary's unconfirmed stream window (records past the standby's ack)."), func(s *svcStats) float64 { return float64(s.ReplicaStreamLag) }},
	{Declare(KindCounter, "gsalert_qos_admitted_total", "Matches enqueued for immediate delivery."), func(s *svcStats) float64 { return float64(s.QoSAdmitted) }},
	{Declare(KindCounter, "gsalert_qos_deferred_total", "Over-quota normal matches parked for delayed delivery."), func(s *svcStats) float64 { return float64(s.QoSDeferred) }},
	{Declare(KindCounter, "gsalert_qos_coalesced_total", "Over-quota bulk matches folded into a pending digest."), func(s *svcStats) float64 { return float64(s.QoSCoalesced) }},
	{Declare(KindCounter, "gsalert_qos_digests_total", "Coalesced digest notifications synthesized."), func(s *svcStats) float64 { return float64(s.QoSDigests) }},
	{Declare(KindGauge, "gsalert_replica_promoted", "1 once a standby has taken over as primary."), func(s *svcStats) float64 {
		if s.ReplicaPromoted {
			return 1
		}
		return 0
	}},
}

var replicaRole = Declare(KindGauge, "gsalert_replica_role", "Replication role of this server (1 on the active role's series).")

// RegisterService exposes core.ServiceStats via one Stats() snapshot per
// scrape.
func RegisterService(r *Registry, stats func() core.ServiceStats) {
	r.Collect(func(c *Collector) {
		s := stats()
		for _, f := range serviceFamilies {
			c.Emit(f.d, f.get(&s))
		}
		role := s.ReplicaRole
		if role == "" {
			role = "off"
		}
		c.Emit(replicaRole, 1, L("role", role))
	})
}

var deliveryCounters = []counterFamily[delivery.Metrics]{
	{Declare(KindCounter, "gsalert_delivery_enqueued_total", "Notifications accepted by Enqueue."), func(m *delivery.Metrics) *metrics.Counter { return &m.Enqueued }},
	{Declare(KindCounter, "gsalert_delivery_delivered_total", "Notifications successfully handed to a sink."), func(m *delivery.Metrics) *metrics.Counter { return &m.Delivered }},
	{Declare(KindCounter, "gsalert_delivery_parked_total", "Notifications parked in a mailbox (no sink or sink failed)."), func(m *delivery.Metrics) *metrics.Counter { return &m.Parked }},
	{Declare(KindCounter, "gsalert_delivery_deferred_total", "Notifications parked by QoS admission control."), func(m *delivery.Metrics) *metrics.Counter { return &m.Deferred }},
	{Declare(KindCounter, "gsalert_delivery_retried_total", "Notifications parked after a failed delivery attempt."), func(m *delivery.Metrics) *metrics.Counter { return &m.Retried }},
	{Declare(KindCounter, "gsalert_delivery_dropped_total", "Notifications evicted from a full mailbox (actual loss)."), func(m *delivery.Metrics) *metrics.Counter { return &m.Dropped }},
	{Declare(KindCounter, "gsalert_delivery_recovered_total", "Notifications restored from mailbox WALs at start."), func(m *delivery.Metrics) *metrics.Counter { return &m.Recovered }},
	{Declare(KindCounter, "gsalert_delivery_batches_total", "Delivery flushes."), func(m *delivery.Metrics) *metrics.Counter { return &m.Batches }},
}

var (
	deliveryFlush      = Declare(KindHistogram, "gsalert_delivery_flush_seconds", "Sink round-trip time per delivery flush.")
	deliveredByClass   = Declare(KindCounter, "gsalert_delivery_delivered_by_class_total", "Delivered notifications split by QoS class.")
	deliveryLatency    = Declare(KindHistogram, "gsalert_delivery_latency_seconds", "End-to-end delivery latency per QoS class (enqueue to sink, including parked dwell).")
	deliveryQueueDepth = Declare(KindGauge, "gsalert_delivery_queue_depth", "Current occupancy of a shard's per-class queue.")
	deliveryDRRCredit  = Declare(KindGauge, "gsalert_delivery_drr_credit", "Remaining DRR deficit credit of a shard worker, per class.")
	deliveryBatchMean  = Declare(KindGauge, "gsalert_delivery_batch_size_mean", "Mean notifications per delivery flush.")
)

// RegisterDelivery exposes the pipeline's counters (lock-free, read
// directly), per-class delivered counts and end-to-end latency histograms,
// and the per-shard/per-class queue depths and DRR deficits.
func RegisterDelivery(r *Registry, p *delivery.Pipeline) {
	m := p.Metrics()
	registerCounters(r, m, deliveryCounters)
	r.Histogram(deliveryFlush, &m.FlushLatency)
	for cl := 0; cl < qos.NumClasses; cl++ {
		label := L("class", qos.Class(cl).String())
		r.CounterValue(deliveredByClass, &m.DeliveredByClass[cl], label)
		r.Histogram(deliveryLatency, &m.ClassLatency[cl], label)
	}
	r.Collect(func(c *Collector) {
		depths := p.ClassQueueDepths()
		credits := p.SchedulerCredits()
		for i := range depths {
			shard := L("shard", strconv.Itoa(i))
			for cl := 0; cl < qos.NumClasses; cl++ {
				class := L("class", qos.Class(cl).String())
				c.Emit(deliveryQueueDepth, float64(depths[i][cl]), shard, class)
				c.Emit(deliveryDRRCredit, float64(credits[i][cl]), shard, class)
			}
		}
		mean := 0.0
		if batches := m.Batches.Value(); batches > 0 {
			mean = float64(m.Batched.Value()) / float64(batches)
		}
		c.Emit(deliveryBatchMean, mean)
	})
}

var (
	qosQuotaBuckets = Declare(KindGauge, "gsalert_qos_quota_buckets", "Live token buckets tracked per quota dimension.")
	qosQuotaTokens  = Declare(KindGauge, "gsalert_qos_quota_tokens", "Aggregate stored tokens per quota dimension (near zero across many buckets = quotas saturated).")
)

// RegisterQoS exposes the admission controller's token-bucket levels.
func RegisterQoS(r *Registry, ctrl *qos.Controller) {
	r.Collect(func(c *Collector) {
		s := ctrl.Stats()
		for _, dim := range []struct {
			name   string
			levels qos.BucketLevels
		}{
			{"subscriber", s.Subscribers},
			{"collection", s.Collections},
		} {
			label := L("dimension", dim.name)
			c.Emit(qosQuotaBuckets, float64(dim.levels.Buckets), label)
			c.Emit(qosQuotaTokens, dim.levels.Tokens, label)
		}
	})
}

var gdsCounters = []counterFamily[gds.Metrics]{
	{Declare(KindCounter, "gsalert_gds_deliveries_total", "Inner envelopes handed to registered servers."), func(m *gds.Metrics) *metrics.Counter { return &m.Deliveries }},
	{Declare(KindCounter, "gsalert_gds_broadcasts_total", "Flood envelopes relayed through this node."), func(m *gds.Metrics) *metrics.Counter { return &m.Broadcasts }},
	{Declare(KindCounter, "gsalert_gds_multicasts_total", "Group-multicast envelopes relayed."), func(m *gds.Metrics) *metrics.Counter { return &m.Multicasts }},
	{Declare(KindCounter, "gsalert_gds_content_routed_total", "Digest-pruned content-routing envelopes relayed."), func(m *gds.Metrics) *metrics.Counter { return &m.ContentRouted }},
	{Declare(KindCounter, "gsalert_gds_content_flooded_total", "Content envelopes that took the flood fallback."), func(m *gds.Metrics) *metrics.Counter { return &m.ContentFlooded }},
	{Declare(KindCounter, "gsalert_gds_resolves_total", "Name resolutions served."), func(m *gds.Metrics) *metrics.Counter { return &m.Resolves }},
	{Declare(KindCounter, "gsalert_gds_resolves_delegated_total", "Name resolutions escalated to the parent."), func(m *gds.Metrics) *metrics.Counter { return &m.ResolvesDelegated }},
}

var (
	gdsNodeInfo     = Declare(KindGauge, "gsalert_gds_node_info", "Static node identity (always 1; id and stratum as labels).")
	gdsDedupHits    = Declare(KindCounter, "gsalert_gds_dedup_hits_total", "Duplicate envelopes suppressed by the dedup window.")
	gdsChildren     = Declare(KindGauge, "gsalert_gds_children", "Attached child directory nodes.")
	gdsServers      = Declare(KindGauge, "gsalert_gds_servers", "Directly registered Greenstone servers.")
	gdsSubtreeNames = Declare(KindGauge, "gsalert_gds_subtree_names", "Names resolvable from this node's subtree table.")
	gdsGroups       = Declare(KindGauge, "gsalert_gds_groups", "Multicast groups with at least one member.")
	gdsWarmLinks    = Declare(KindGauge, "gsalert_gds_warm_links", "Tree links with an advertised content digest.")
	gdsLinkDigest   = Declare(KindGauge, "gsalert_gds_link_digest_conjunctions", "Digest conjunctions advertised over one tree link.")
)

// RegisterGDSNode exposes a directory node's dissemination counters and its
// content-routing table: one digest-size gauge per warm tree link.
func RegisterGDSNode(r *Registry, n *gds.Node) {
	registerCounters(r, n.Metrics(), gdsCounters)
	r.Collect(func(c *Collector) {
		info := n.Snapshot()
		c.Emit(gdsNodeInfo, 1, L("id", info.ID), L("stratum", strconv.Itoa(info.Stratum)))
		c.Emit(gdsDedupHits, float64(info.DedupHits))
		c.Emit(gdsChildren, float64(len(info.Children)))
		c.Emit(gdsServers, float64(len(info.Servers)))
		c.Emit(gdsSubtreeNames, float64(len(info.Subtree)))
		c.Emit(gdsGroups, float64(len(info.Groups)))
		c.Emit(gdsWarmLinks, float64(len(info.Digests)))
		for link, digest := range info.Digests {
			c.Emit(gdsLinkDigest, float64(len(digest)), L("link", link))
		}
	})
}

var (
	traceSpans     = Declare(KindCounter, "gsalert_trace_spans_total", "Spans recorded into the trace collector.")
	traceDropped   = Declare(KindCounter, "gsalert_trace_dropped_total", "Spans overwritten by the ring's drop-oldest policy before being read.")
	traceOccupancy = Declare(KindGauge, "gsalert_trace_ring_occupancy", "Span records currently held in the collector ring.")
	traceCapacity  = Declare(KindGauge, "gsalert_trace_ring_capacity", "Total span slots across the collector's shards.")
)

// RegisterTrace exposes the span collector's self-monitoring series: spans
// recorded, spans dropped by the ring's drop-oldest policy, and the ring's
// current occupancy against its capacity.
func RegisterTrace(r *Registry, col *trace.Collector) {
	r.Func(traceSpans, func() float64 { return float64(col.SpansTotal()) })
	r.Func(traceDropped, func() float64 { return float64(col.Dropped()) })
	r.Func(traceOccupancy, func() float64 { return float64(col.Occupancy()) })
	r.Func(traceCapacity, func() float64 { return float64(col.Capacity()) })
}

var (
	loggingRecords    = Declare(KindCounter, "gsalert_logging_records_total", "Log records emitted past level filtering, per component.")
	loggingDropped    = Declare(KindCounter, "gsalert_logging_dropped_total", "Ring records displaced by drop-oldest before any capture saw them.")
	loggingSuppressed = Declare(KindCounter, "gsalert_logging_suppressed_total", "Sink lines withheld by the per-component rate limiter (still ring-retained).")
	loggingOccupancy  = Declare(KindGauge, "gsalert_logging_ring_occupancy", "Records currently held in the component's flight ring.")
	loggingCapacity   = Declare(KindGauge, "gsalert_logging_ring_capacity", "Record slots in the component's flight ring.")
	loggingDumps      = Declare(KindCounter, "gsalert_logging_dumps_total", "Post-mortem bundles captured (health-triggered or manual).")
)

// RegisterLogging exposes the structured-logging plane's self-monitoring
// series: per-component record and ring-drop counters, sink suppression,
// and ring occupancy against capacity — the gsalert_logging_* catalog of
// docs/LOGGING.md. Components appear on first logger use, so the label
// sets are dynamic and this is a Collect callback.
func RegisterLogging(r *Registry, rec *logging.Recorder) {
	r.Collect(func(c *Collector) {
		for _, s := range rec.Stats() {
			label := L("component", s.Component)
			c.Emit(loggingRecords, float64(s.Emitted), label)
			c.Emit(loggingDropped, float64(s.Dropped), label)
			c.Emit(loggingSuppressed, float64(s.Suppressed), label)
			c.Emit(loggingOccupancy, float64(s.Occupancy), label)
			c.Emit(loggingCapacity, float64(s.Capacity), label)
		}
	})
}

// RegisterFlight exposes the flight recorder's capture counter next to the
// per-component logging series.
func RegisterFlight(r *Registry, fr *logging.FlightRecorder) {
	r.Func(loggingDumps, func() float64 { return float64(fr.Dumps()) })
}

var transportCounters = []counterFamily[transport.HTTPMetrics]{
	{Declare(KindCounter, "gsalert_transport_frames_sent_total", "Envelopes POSTed to peers."), func(m *transport.HTTPMetrics) *metrics.Counter { return &m.FramesSent }},
	{Declare(KindCounter, "gsalert_transport_frames_received_total", "Envelopes accepted by local listeners."), func(m *transport.HTTPMetrics) *metrics.Counter { return &m.FramesReceived }},
	{Declare(KindCounter, "gsalert_transport_bytes_sent_total", "Envelope payload bytes sent."), func(m *transport.HTTPMetrics) *metrics.Counter { return &m.BytesSent }},
	{Declare(KindCounter, "gsalert_transport_bytes_received_total", "Envelope payload bytes received."), func(m *transport.HTTPMetrics) *metrics.Counter { return &m.BytesReceived }},
	{Declare(KindCounter, "gsalert_transport_send_errors_total", "Sends that failed before yielding a response envelope."), func(m *transport.HTTPMetrics) *metrics.Counter { return &m.SendErrors }},
}

// RegisterHTTPTransport exposes the wire-level frame and byte counters of
// the process's HTTP transport.
func RegisterHTTPTransport(r *Registry, t *transport.HTTP) {
	registerCounters(r, t.Metrics(), transportCounters)
}

var (
	goGoroutines  = Declare(KindGauge, "gsalert_go_goroutines", "Live goroutines.")
	goHeapAlloc   = Declare(KindGauge, "gsalert_go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	goHeapObjects = Declare(KindGauge, "gsalert_go_heap_objects", "Allocated heap objects.")
	goGCCycles    = Declare(KindCounter, "gsalert_go_gc_cycles_total", "Completed GC cycles.")
	goGCPause     = Declare(KindCounter, "gsalert_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.")
)

// RegisterGoRuntime exposes the process-level runtime gauges every
// dashboard wants next to the subsystem panels.
func RegisterGoRuntime(r *Registry) {
	r.Collect(func(c *Collector) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.Emit(goGoroutines, float64(runtime.NumGoroutine()))
		c.Emit(goHeapAlloc, float64(ms.HeapAlloc))
		c.Emit(goHeapObjects, float64(ms.HeapObjects))
		c.Emit(goGCCycles, float64(ms.NumGC))
		c.Emit(goGCPause, float64(ms.PauseTotalNs)/1e9)
	})
}
