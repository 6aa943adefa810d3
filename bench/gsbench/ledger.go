package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/composite"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/filter"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/qos"
)

// The per-layer ledger of a traced run. Three sources combine:
//
//   - span self times (span − children) for what the decorators can see:
//     transport sends, GDS hops, matcher calls, replication records, remote
//     event handling, sinks;
//   - public counters (ServiceStats, delivery.Metrics, filter.Stats,
//     transport.HTTPMetrics, runtime) for work counts;
//   - replay probes for what happens inside one opaque call: the XML codec
//     inside transport.HTTP, and admission, composite ingest, enqueue and
//     event encoding inside core's publishEvent.
//
// trace.ledger_gap_share says how well the parts add up to the measured
// publish time.

// counters is the sum of the deployment's public counters at one instant.
type counters struct {
	origin   core.ServiceStats // the publishing server's own
	all      core.ServiceStats // summed over every server (numeric fields used below)
	originDl delivery.Snapshot
	dl       delivery.Snapshot
	flt      filter.Stats
	wire     int64 // bytes on the wire (requests + responses)
	sendErrs int64
	walBytes int64
	standby  core.ServiceStats
}

func (c *cluster) counters() counters {
	var k counters
	for i, s := range c.servers {
		st := s.svc.Stats()
		snap := s.pipeline.Metrics().Snapshot()
		if i == 0 {
			k.origin, k.originDl = st, snap
		}
		k.all.DuplicatesDropped += st.DuplicatesDropped
		k.all.CompositeFirings += st.CompositeFirings
		k.all.CompositeLiveInstances += st.CompositeLiveInstances
		k.all.CompositePrimitives += st.CompositePrimitives
		k.all.QoSAdmitted += st.QoSAdmitted
		k.all.QoSDeferred += st.QoSDeferred
		k.all.QoSCoalesced += st.QoSCoalesced
		k.dl.Enqueued += snap.Enqueued
		k.dl.Delivered += snap.Delivered
		k.dl.Batches += snap.Batches
		k.dl.Parked += snap.Parked
		k.dl.Dropped += snap.Dropped
		fs := s.matcher.Stats()
		k.flt.Events += fs.Events
		k.flt.Evaluations += fs.Evaluations
		k.flt.Matches += fs.Matches
	}
	for _, h := range c.https {
		m := h.Metrics()
		k.wire += m.BytesSent.Value()
		k.sendErrs += m.SendErrors.Value()
	}
	if c.standby != nil {
		k.standby = c.standby.svc.Stats()
		k.walBytes = dirSize(c.walDirs[0])
	}
	return k
}

func dirSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// gcSnapshot reads the runtime's GC accounting.
type gcSnapshot struct {
	gcCPU, busyCPU float64
	numGC          uint32
}

func readGC() gcSnapshot {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{gcCPU: s[0].Value.Float64(), busyCPU: s[1].Value.Float64() - s[2].Value.Float64(), numGC: ms.NumGC}
}

// gcPauses returns the stop-the-world pauses of GC cycles (from, to].
func gcPauses(from, to uint32) []int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if to-from > uint32(len(ms.PauseNs)) {
		from = to - uint32(len(ms.PauseNs))
	}
	var out []int64
	for n := from + 1; n <= to; n++ {
		out = append(out, int64(ms.PauseNs[(n+255)%256]))
	}
	return out
}

// tracedPhases runs the traced part of a traced run and fills in the
// per-layer metrics.
func (r *run) tracedPhases() error {
	d := time.Duration(r.cfg.seconds * tracedPacedShare * float64(time.Second))
	untraced := r.paced(d)

	r.tracer.on.Store(true)
	before, gcBefore := r.c.counters(), readGC()
	var lagMax atomic.Uint64
	stopLag := r.sampleLag(&lagMax)
	traced := r.paced(d)
	stopLag()
	after, gcAfter := r.c.counters(), readGC()
	r.churn(time.Duration(r.cfg.seconds*tracedChurnShare*float64(time.Second)), tracedChurnPairs)
	r.tracer.on.Store(false)

	state := "sustained"
	if !traced.sustainable {
		state = "UNSUSTAINABLE"
		r.res.problem("unsustainable: the traced paced repetition fell behind %d ev/s (max lateness %v)", r.cfg.sp.pacedRate, traced.maxLate)
	}
	fmt.Fprintf(r.cfg.log, "# %s traced: paced %d ev/s %s, generator max lateness %.2f ms, %d spans, %d lost\n",
		r.cfg.sp.name, r.cfg.sp.pacedRate, state, float64(traced.maxLate)/1e6, r.tracer.n.Load(), r.tracer.lost.Load())
	if r.tracer.lost.Load() > 0 {
		r.res.problem("%d spans lost: span buffer too small", r.tracer.lost.Load())
	}

	pr := r.probes(traced)
	r.res.metrics = r.ledger(untraced, traced, before, after, gcBefore, gcAfter, float64(lagMax.Load()), pr)
	return nil
}

// sampleLag polls the primary's unconfirmed stream window off the timing
// path (reading it takes the stream lock).
func (r *run) sampleLag(peak *atomic.Uint64) (stop func()) {
	if r.c.standby == nil {
		return func() {}
	}
	return every(5*time.Millisecond, func() {
		if lag := r.c.primary.ReplicaStats().StreamLag; lag > peak.Load() {
			peak.Store(lag)
		}
	})
}

// probeResult holds the replay probes' figures.
type probeResult struct {
	marshalUs, unmarshalUs, codecAllocs float64 // per captured envelope
	admitNs, ingestNs, enqueueNs        float64 // per call
}

const probeEvents = 200

func (r *run) probes(traced pacedResult) probeResult {
	var pr probeResult
	g := r.g
	// Codec: the envelopes the decorator captured, through Marshal/Unmarshal.
	if envs := r.tracer.captured; len(envs) > 0 {
		raws := make([][]byte, len(envs))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i, env := range envs {
			raws[i], _ = protocol.Marshal(env)
		}
		t1 := time.Now()
		for _, raw := range raws {
			_, _ = protocol.Unmarshal(raw)
		}
		t2 := time.Now()
		runtime.ReadMemStats(&ms1)
		n := float64(len(envs))
		pr.marshalUs = float64(t1.Sub(t0).Microseconds()) / n
		pr.unmarshalUs = float64(t2.Sub(t1).Microseconds()) / n
		pr.codecAllocs = float64(ms1.Mallocs-ms0.Mallocs) / n
	}

	// The traced phase's first events, regenerated as inputs for the probes.
	base := len(g.desc) - traced.events
	seqs := make([]int, 0, probeEvents)
	for seq := base; seq < len(g.desc) && len(seqs) < probeEvents; seq++ {
		seqs = append(seqs, seq)
	}
	evs := make([]*event.Event, len(seqs))
	for i, seq := range seqs {
		evs[i] = event.New(eventID(seq), event.TypeDocumentsAdded, g.coll, seq+1, nil, g.base)
	}

	// The probes' inputs are built before the clock starts: what is timed is
	// the call, not the formatting of its arguments.

	// Admission: the same key stream through a standalone controller.
	if r.cfg.sp.qos {
		var keys []string // "" stands for the per-event collection check
		for _, seq := range seqs {
			keys = append(keys, "")
			g.forEachHit(seq, func(p int) {
				if !g.composite(p) && g.class(p) != qos.ClassRealtime {
					keys = append(keys, clientName(int(g.clientOf[p])))
				}
			})
		}
		ctrl, coll := qos.NewController(openQuotas), g.coll.String()
		t0 := time.Now()
		for _, key := range keys {
			if key == "" {
				ctrl.AllowCollection(coll)
			} else {
				ctrl.AllowSubscriber(key)
			}
		}
		pr.admitNs = float64(time.Since(t0).Nanoseconds()) / float64(max(len(keys), 1))
	}

	// Composite ingest: the composite hits through a standalone engine.
	if r.cfg.sp.compositeEvery > 0 {
		eng := composite.NewEngine(composite.Config{Emit: func(composite.Firing) {}})
		now := time.Now()
		for i := 0; i < r.cfg.sp.topicProfiles; i++ {
			if g.composite(i) {
				if p, err := g.profile(i, originName); err == nil {
					_ = eng.Register(p, now)
				}
			}
		}
		type hit struct {
			id string
			ev *event.Event
		}
		var hits []hit
		for i, seq := range seqs {
			g.forEachHit(seq, func(p int) {
				if g.composite(p) {
					hits = append(hits, hit{profileID(p), evs[i]})
				}
			})
		}
		t0 := time.Now()
		for _, h := range hits {
			eng.OnPrimitive(h.id, 0, h.ev, nil, now)
		}
		pr.ingestNs = float64(time.Since(t0).Nanoseconds()) / float64(max(len(hits), 1))
	}

	// Enqueue: the notification stream into a standalone pipeline with the
	// deployment's configuration (WAL included where the workload has one).
	// The default overflow policy blocks the producer on a full shard queue,
	// which would time the flush workers instead of Enqueue: a timed batch
	// therefore never holds more than one queue's capacity, and the pipeline
	// drains, untimed, between batches.
	{
		cfg := delivery.Config{
			Shards:        delivery.DefaultShards,
			QueueDepth:    delivery.DefaultQueueDepth,
			BatchSize:     delivery.DefaultBatchSize,
			FlushInterval: delivery.DefaultFlushInterval,
			MailboxCap:    delivery.DefaultMailboxCap,
		}
		if r.c.standby != nil {
			if dir, err := os.MkdirTemp("", "gsbench-probe-"); err == nil {
				cfg.Dir = dir
				defer os.RemoveAll(dir)
			}
		}
		// One batch per event, as the publisher produces them (a burst into
		// idle workers), split where an event has more than a queue holds.
		var batches [][]delivery.Notification
		now := time.Now()
		for i, seq := range seqs {
			var batch []delivery.Notification
			g.forEachHit(seq, func(pi int) {
				if !g.composite(pi) {
					batch = append(batch, delivery.Notification{
						Client: clientName(int(g.clientOf[pi])), ProfileID: profileID(pi),
						Event: evs[i], Class: g.class(pi), At: now,
					})
				}
			})
			for len(batch) > cfg.QueueDepth {
				batches, batch = append(batches, batch[:cfg.QueueDepth]), batch[cfg.QueueDepth:]
			}
			batches = append(batches, batch)
		}
		if p, err := delivery.NewPipeline(cfg); err == nil {
			for c := 0; c < r.cfg.sp.clients; c++ {
				if !g.detached(c) {
					p.Attach(clientName(c), func(string, []delivery.Notification) error { return nil })
				}
			}
			var spent time.Duration
			calls := 0
			for _, batch := range batches {
				t0 := time.Now()
				for _, n := range batch {
					_ = p.Enqueue(n)
				}
				spent += time.Since(t0)
				calls += len(batch)
				_ = p.Drain(r.ctx)
			}
			pr.enqueueNs = float64(spent.Nanoseconds()) / float64(max(calls, 1))
			_ = p.Close()
		}
	}

	return pr
}

// spanStats is the span table reduced to what the ledger needs.
type spanStats struct {
	self     []int64 // per span
	root     []int32 // per span: ID of its root
	inTree   []bool  // per span: its root is a publish span
	parentOf []int32
}

func analyse(spans []spanRec) spanStats {
	st := spanStats{
		self:     make([]int64, len(spans)),
		root:     make([]int32, len(spans)),
		inTree:   make([]bool, len(spans)),
		parentOf: make([]int32, len(spans)),
	}
	for i, s := range spans {
		st.self[i] = s.End - s.Start
		st.parentOf[i] = s.Parent
		st.root[i] = s.ID
		if s.Parent > 0 {
			st.root[i] = st.root[s.Parent-1] // parents are recorded before their children
			p := spans[s.Parent-1]
			// Charge the parent only for the part of the child it spans.
			st.self[s.Parent-1] -= max(0, min(s.End, p.End)-max(s.Start, p.Start))
		}
	}
	for i := range spans {
		st.inTree[i] = spans[st.root[i]-1].Name == "publish"
	}
	return st
}

// ledger computes the per-layer metrics.
func (r *run) ledger(untraced, traced pacedResult, k0, k1 counters, gc0, gc1 gcSnapshot, lagMax float64, pr probeResult) []metric {
	all := r.tracer.recorded()
	spans := all[:0:0]
	for _, s := range all {
		if s.End == 0 {
			s.End = s.Start // never closed: tracing was switched off under it
		}
		spans = append(spans, s)
	}
	st := analyse(spans)
	events := float64(max(traced.events, 1))
	inPaced := func(s spanRec) bool { return s.Start >= traced.began && s.Start <= traced.ended }

	type agg struct {
		n         float64
		dur, self float64 // µs
	}
	add := func(a *agg, i int) {
		a.n++
		a.dur += float64(spans[i].End-spans[i].Start) / 1e3
		a.self += float64(st.self[i]) / 1e3
	}
	perCall := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	var publish, match, addP, removeP, subscribe agg
	var send, gdsHop, replSend, replSendTree, replApply, remoteCore, sink agg
	var matchDur, subConcurrent []int64
	var envelopes, gdsFanout float64
	for i, s := range spans {
		isSend := strings.HasPrefix(s.Name, "send:")
		if isSend && inPaced(s) {
			envelopes++
		}
		switch {
		case s.Name == "publish":
			add(&publish, i)
		case s.Name == "match":
			if st.inTree[i] {
				add(&match, i)
			}
			matchDur = append(matchDur, s.End-s.Start)
		case s.Name == "add":
			add(&addP, i)
		case s.Name == "remove":
			add(&removeP, i)
		case s.Name == "subscribe":
			add(&subscribe, i)
			if inPaced(s) {
				subConcurrent = append(subConcurrent, s.End-s.Start)
			}
		case s.Name == "sink-batch", s.Name == "handle:"+string(protocol.MsgNotifyBatch):
			add(&sink, i)
		case isSend && s.Layer == layerReplica:
			add(&replSend, i)
			if st.inTree[i] {
				add(&replSendTree, i)
			}
		case s.Layer == layerReplica:
			add(&replApply, i)
		case isSend && s.Layer == layerTransport && st.inTree[i]:
			add(&send, i)
			if s.Parent > 0 && spans[s.Parent-1].Layer == layerGDS {
				gdsFanout++
			}
		case s.Layer == layerGDS && st.inTree[i]:
			add(&gdsHop, i)
		case s.Layer == layerCore && strings.HasPrefix(s.Name, "handle:") && st.inTree[i]:
			add(&remoteCore, i)
		}
	}

	dEnq := float64(k1.dl.Enqueued - k0.dl.Enqueued)
	dOriginEnq := float64(k1.originDl.Enqueued - k0.originDl.Enqueued)
	dEvals := float64(k1.flt.Evaluations - k0.flt.Evaluations)
	dMatches := float64(k1.flt.Matches - k0.flt.Matches)
	dAdmitted := float64(k1.all.QoSAdmitted - k0.all.QoSAdmitted)
	dPrims := float64(k1.all.CompositePrimitives - k0.all.CompositePrimitives)
	dBatches := float64(k1.dl.Batches - k0.dl.Batches)
	publishUs := perCall(publish.dur, publish.n)

	matchSorted := sortedCopy(matchDur)
	mq, mLabel := tailQuantile(len(matchSorted))
	subSorted := sortedCopy(subConcurrent)
	sq, sLabel := tailQuantile(len(subSorted))
	dwell := summarize(traced.dwell)
	dwNote := fmt.Sprintf("n=%d, tail %s", dwell.n, dwell.tailLabel)
	pauses := sortedCopy(gcPauses(gc0.numGC, gc1.numGC))
	pq, pLabel := tailQuantile(len(pauses))

	// The ledger: what the decorators measured inside the publish trees
	// (self times of sends, GDS hops, replication round trips and remote
	// event handling; matcher calls whole) plus the probes' sizing of the
	// publishing server's own opaque share, against the measured publish
	// time. The gap is what neither sees: lock waits, cold caches, time
	// descheduled, encoding done inside core's and replica's own calls.
	admitCalls := dAdmitted
	if r.cfg.sp.qos {
		admitCalls += events // one collection-bucket check per event
	}
	probed := (pr.admitNs*admitCalls + pr.ingestNs*dPrims + pr.enqueueNs*dOriginEnq) / 1e3
	recon := (send.self + gdsHop.self + match.dur + replSendTree.dur + remoteCore.self + probed) / events
	gap := 0.0
	if publishUs > 0 {
		gap = math.Abs(recon-publishUs) / publishUs
	}
	overhead := 0.0
	if m := quantile(sortedCopy(traced.publish), 0.5); m > 0 {
		overhead = 1 - float64(quantile(sortedCopy(untraced.publish), 0.5))/float64(m)
	}
	gcShare := 0.0
	if busy := gc1.busyCPU - gc0.busyCPU; busy > 0 {
		gcShare = (gc1.gcCPU - gc0.gcCPU) / busy
	}
	walPerNotif := 0.0
	if r.c.standby != nil {
		walPerNotif = perCall(float64(k1.walBytes-k0.walBytes), dOriginEnq)
	}
	codecEnvs := envelopes * 2 // a request and (nearly always) a response
	n := func(x float64) string { return fmt.Sprintf("n=%.0f", x) }

	return []metric{
		{"protocol.envelopes_per_event", envelopes / events, "count", "sends of any type during the traced paced phase"},
		{"protocol.bytes_per_event", float64(k1.wire-k0.wire) / events, "B", "requests + responses"},
		{"protocol.marshal_us_per_env", pr.marshalUs, "us", fmt.Sprintf("replay of %d captured envelopes", len(r.tracer.captured))},
		{"protocol.unmarshal_us_per_env", pr.unmarshalUs, "us", ""},
		{"protocol.codec_allocs_per_env", pr.codecAllocs, "count", "marshal + unmarshal"},
		{"protocol.codec_us_per_event", codecEnvs / events * (pr.marshalUs + pr.unmarshalUs), "us", "part of transport and replica self time, not added to the ledger again"},

		{"transport.sends_per_event", send.n / events, "count", "within publish trees, replication excluded"},
		{"transport.send_self_us", perCall(send.self, send.n), "us", n(send.n)},
		{"transport.self_us_per_event", send.self / events, "us", ""},
		{"transport.send_errors", float64(k1.sendErrs-k0.sendErrs) + float64(r.tracer.sendErrs.Load()), "count", ""},

		{"gds.hops_per_event", gdsHop.n / events, "count", ""},
		{"gds.handle_self_us", perCall(gdsHop.self, gdsHop.n), "us", n(gdsHop.n)},
		{"gds.self_us_per_event", gdsHop.self / events, "us", ""},
		{"gds.fanout_per_hop", perCall(gdsFanout, gdsHop.n), "count", ""},

		{"filter.match_us", match.dur / events, "us", "per event, all servers"},
		{"filter.match_p99_us", float64(quantile(matchSorted, mq)) / 1e3, "us", fmt.Sprintf("per call, n=%d, %s", len(matchSorted), mLabel)},
		{"filter.evals_per_event", dEvals / events, "count", ""},
		{"filter.matches_per_event", dMatches / events, "count", ""},
		{"filter.useful_ratio", perCall(dMatches, dEvals), "ratio", "matches / evaluations"},
		{"filter.add_us", perCall(addP.dur, addP.n), "us", n(addP.n)},
		{"filter.remove_us", perCall(removeP.dur, removeP.n), "us", n(removeP.n)},

		{"qos.admit_ns", pr.admitNs, "ns", "probe"},
		{"qos.admitted_per_event", dAdmitted / events, "count", ""},
		{"qos.deferred", float64(k1.all.QoSDeferred), "count", ""},
		{"qos.coalesced", float64(k1.all.QoSCoalesced), "count", ""},

		{"composite.ingest_ns", pr.ingestNs, "ns", "probe"},
		{"composite.primitives_per_event", dPrims / events, "count", ""},
		{"composite.firings", float64(k1.all.CompositeFirings), "count", ""},
		{"composite.live_instances", float64(k1.all.CompositeLiveInstances), "count", ""},

		{"delivery.enqueue_ns", pr.enqueueNs, "ns", "probe"},
		{"delivery.enqueued_per_event", dEnq / events, "count", ""},
		{"delivery.batch_mean", perCall(float64(k1.dl.Delivered-k0.dl.Delivered), dBatches), "count", ""},
		{"delivery.dwell_p50_ms", dwell.p50 / 1e6, "ms", dwNote},
		{"delivery.dwell_p99_ms", dwell.tail / 1e6, "ms", dwNote},
		{"delivery.sink_us_per_batch", perCall(sink.dur, sink.n), "us", n(sink.n)},
		{"delivery.queue_depth_max", float64(traced.depthMax), "count", "sampled at every dispatch"},
		{"delivery.parked", float64(k1.dl.Parked - k0.dl.Parked), "count", ""},
		{"delivery.dropped", float64(k1.dl.Dropped - k0.dl.Dropped), "count", ""},
		{"delivery.wal_bytes_per_notif", walPerNotif, "B", "appends + acks"},

		{"replica.records_per_event", float64(k1.origin.ReplicaStreamed-k0.origin.ReplicaStreamed) / events, "count", ""},
		{"replica.send_us", perCall(replSend.dur, replSend.n), "us", n(replSend.n)},
		{"replica.apply_self_us", perCall(replApply.self, replApply.n), "us", n(replApply.n)},
		{"replica.us_per_event", replSendTree.dur / events, "us", "stream round trips inside publish"},
		{"replica.stream_errors", float64(k1.origin.ReplicaErrors + k1.standby.ReplicaErrors), "count", ""},
		{"replica.lag_max", lagMax, "count", "sampled every 5 ms"},

		{"core.publish_us", publishUs, "us", n(publish.n)},
		{"core.publish_self_us", perCall(publish.self, publish.n), "us", "publish − match − nested sends"},
		{"core.subscribe_self_us", perCall(subscribe.self, subscribe.n), "us", n(subscribe.n)},
		{"core.subscribe_concurrent_p99_us", float64(quantile(subSorted, sq)) / 1e3, "us", fmt.Sprintf("subscribes beside the paced publishers, n=%d, %s", len(subSorted), sLabel)},
		{"core.dup_dropped", float64(k1.all.DuplicatesDropped - k0.all.DuplicatesDropped), "count", ""},

		{"runtime.gc_cpu_share", gcShare, "ratio", ""},
		{"runtime.gc_pause_p99_us", float64(quantile(pauses, pq)) / 1e3, "us", fmt.Sprintf("n=%d, %s", len(pauses), pLabel)},
		{"trace.overhead_share", overhead, "ratio", "1 − untraced/traced median publish latency"},
		{"trace.ledger_gap_share", gap, "ratio", fmt.Sprintf("layers add up to %.1f us of the measured %.1f us", recon, publishUs)},
	}
}
