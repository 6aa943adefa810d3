package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
)

// E15 — QoS admission control & graceful overload degradation. A publisher
// on a 16-server tree drives a subscriber server into 10x overload relative
// to its per-subscriber quota. Three subscribers hold the same
// content profile at the three priority classes. The acceptance bar, in
// every routing mode:
//
//   - realtime is loss-free with bounded p99 delivery latency (it bypasses
//     quotas and is serviced first by the WFQ shard scheduler);
//   - normal over quota is deferred — parked durably, then delivered on the
//     next attach (delayed, never lost: final count equals the event count);
//   - bulk over quota is coalesced: the shed events arrive as one digest
//     carrying every suppressed primitive;
//   - the QoS counters account exactly for every match: admitted + deferred
//     + coalesced = 3x events, nothing silently lost.

// QoSOverloadResult is one E15 row (one routing mode).
type QoSOverloadResult struct {
	Mode    string
	Servers int
	// Events is the number of documents-added events each class profile
	// matched (the overload is Events / Burst = 10x).
	Events int
	// Burst is the per-subscriber token budget (burst-only, no refill).
	Burst int
	// RealtimeDelivered must equal Events.
	RealtimeDelivered int
	// RealtimeP99 is the subscriber pipeline's realtime-class end-to-end
	// delivery latency (bucketed upper bound).
	RealtimeP99 time.Duration
	// The cast's counts: NormalPrompt and BulkPrompt must equal Burst,
	// NormalTotal Events, and DigestEvents Events - Burst.
	qosCastCounts
	// Admitted/Deferred/Coalesced are the subscriber's QoS counters.
	Admitted  int64
	Deferred  int64
	Coalesced int64
}

// RunQoSOverload plays the E15 scenario through one routing mode.
func RunQoSOverload(servers, events, burst int, mode core.RoutingMode, seed int64) (QoSOverloadResult, error) {
	c, names, err := NewTree(seed, servers, mode, nil)
	if err != nil {
		return QoSOverloadResult{}, err
	}
	defer c.Close()
	ctx := context.Background()
	pub, sub := names[0], names[1]
	if _, err := c.Server(pub).AddCollection(ctx, collection.Config{Name: "X", Public: true}); err != nil {
		return QoSOverloadResult{}, err
	}
	cast, err := newQoSCast(c, sub, pub+".X", burst, c.Settle)
	if err != nil {
		return QoSOverloadResult{}, err
	}

	// The overload: each add-round emits one documents-added event for the
	// watched collection; `events` rounds against a budget of `burst`.
	docs := []*collection.Document{{ID: "base-0", Content: "stable document"}}
	if _, _, err := c.Server(pub).Build(ctx, "X", docs); err != nil {
		return QoSOverloadResult{}, err
	}
	for r := 1; r <= events; r++ {
		docs = append(docs, &collection.Document{
			ID:      fmt.Sprintf("extra-%d", r),
			Content: fmt.Sprintf("document of round %d", r),
		})
		if _, _, err := c.Server(pub).Build(ctx, "X", docs); err != nil {
			return QoSOverloadResult{}, err
		}
	}
	c.Settle(ctx)

	out := QoSOverloadResult{
		Mode:              mode.String(),
		Servers:           servers,
		Events:            events,
		Burst:             burst,
		RealtimeDelivered: countPrimitives(cast.rt),
		qosCastCounts:     cast.observe(ctx),
	}
	st := cast.svc.Stats()
	out.Admitted = st.QoSAdmitted
	out.Deferred = st.QoSDeferred
	out.Coalesced = st.QoSCoalesced
	out.RealtimeP99 = cast.svc.Delivery().Metrics().ClassLatency[qos.ClassRealtime].Quantile(0.99)
	return out, nil
}

// burstOnlyQoS is the admission controller every QoS experiment installs:
// burst-only buckets (rate 0 never refills) make the quota exact and the
// run deterministic, and the digest period is long enough that only an
// explicit composite tick flushes it.
func burstOnlyQoS(burst int) *qos.Controller {
	return qos.NewController(qos.Config{SubscriberBurst: burst, BulkDigestEvery: time.Hour})
}

// qosCast is E15's observed cast, which E16 re-plays at its QoS server:
// behind a burst-only controller, rt, nm and blk subscribe at the realtime,
// normal and bulk classes to every documents-added event of one collection.
type qosCast struct {
	svc         *core.Service
	settle      func(context.Context)
	rt, nm, blk *core.MemoryNotifier
}

// qosCastCounts is what the cast observed past its realtime subscriber.
type qosCastCounts struct {
	// NormalPrompt is the normal-class count delivered within quota;
	// NormalTotal the count after the deferred backlog drained on re-attach.
	NormalPrompt, NormalTotal int
	// BulkPrompt is the bulk-class count delivered within quota.
	BulkPrompt int
	// Digests and DigestEvents describe the coalesced bulk remainder.
	Digests, DigestEvents int
}

// newQoSCast installs the controller and the three subscribers on server.
// settle is what observe waits on after each step.
func newQoSCast(c *Cluster, server, coll string, burst int, settle func(context.Context)) (*qosCast, error) {
	q := &qosCast{svc: c.Service(server), settle: settle}
	q.svc.SetQoS(burstOnlyQoS(burst))
	expr := profile.MustParse(fmt.Sprintf(`collection = "%s" AND event.type = "documents-added"`, coll))
	for _, s := range []struct {
		client string
		class  qos.Class
		sink   **core.MemoryNotifier
	}{{"rt", qos.ClassRealtime, &q.rt}, {"nm", qos.ClassNormal, &q.nm}, {"blk", qos.ClassBulk, &q.blk}} {
		*s.sink = c.Notifier(server, s.client)
		p := profile.NewUser(s.client+"-prof", s.client, server, expr)
		p.Class = s.class
		if err := q.svc.SubscribeProfile(p); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// observe reads the cast once the overload is published and settled: the
// prompt counts; then the deferred normal backlog, which drains on the
// subscriber's next attach (the paper-§7 reconnect applied to QoS deferral —
// re-attaching the same sink forces it); then the coalescing digest, flushed
// by a composite tick two simulated hours on.
func (q *qosCast) observe(ctx context.Context) qosCastCounts {
	out := qosCastCounts{NormalPrompt: countPrimitives(q.nm), BulkPrompt: countPrimitives(q.blk)}
	q.svc.RegisterNotifier("nm", q.nm)
	q.settle(ctx)
	out.NormalTotal = countPrimitives(q.nm)
	q.svc.CompositeTick(time.Now().Add(2 * time.Hour))
	q.settle(ctx)
	for _, n := range q.blk.All() {
		if n.Composite == "digest" && n.ProfileID == "blk-prof" {
			out.Digests++
			out.DigestEvents += len(n.Contributing)
		}
	}
	return out
}

// countPrimitives counts a sink's non-composite notifications.
func countPrimitives(sink *core.MemoryNotifier) int {
	n := 0
	for _, x := range sink.All() {
		if x.Composite == "" {
			n++
		}
	}
	return n
}

// qosOverloadCheck asserts the E15 acceptance bar on one row.
func qosOverloadCheck(r QoSOverloadResult, p99Bound time.Duration) error {
	shed := r.Events - r.Burst
	switch {
	case r.RealtimeDelivered != r.Events:
		return fmt.Errorf("sim: E15 %s: realtime delivered %d of %d — loss under overload", r.Mode, r.RealtimeDelivered, r.Events)
	case r.RealtimeP99 <= 0 || r.RealtimeP99 > p99Bound:
		return fmt.Errorf("sim: E15 %s: realtime p99 %v outside (0, %v]", r.Mode, r.RealtimeP99, p99Bound)
	case r.NormalPrompt != r.Burst:
		return fmt.Errorf("sim: E15 %s: normal delivered %d promptly, want %d (quota)", r.Mode, r.NormalPrompt, r.Burst)
	case r.NormalTotal != r.Events:
		return fmt.Errorf("sim: E15 %s: normal total %d of %d — deferral lost alerts", r.Mode, r.NormalTotal, r.Events)
	case r.BulkPrompt != r.Burst:
		return fmt.Errorf("sim: E15 %s: bulk delivered %d promptly, want %d (quota)", r.Mode, r.BulkPrompt, r.Burst)
	case r.Digests != 1 || r.DigestEvents != shed:
		return fmt.Errorf("sim: E15 %s: digests = %d carrying %d, want 1 carrying %d", r.Mode, r.Digests, r.DigestEvents, shed)
	case r.Admitted != int64(r.Events+2*r.Burst) || r.Deferred != int64(shed) || r.Coalesced != int64(shed):
		return fmt.Errorf("sim: E15 %s: accounting admitted/deferred/coalesced = %d/%d/%d, want %d/%d/%d",
			r.Mode, r.Admitted, r.Deferred, r.Coalesced, r.Events+2*r.Burst, shed, shed)
	case r.Admitted+r.Deferred+r.Coalesced != int64(3*r.Events):
		return fmt.Errorf("sim: E15 %s: %d+%d+%d != %d — a match went unaccounted",
			r.Mode, r.Admitted, r.Deferred, r.Coalesced, 3*r.Events)
	}
	return nil
}

// QoSOverloadTable runs E15 over all three routing modes, asserting the
// acceptance bar on every row.
func QoSOverloadTable(servers, events, burst int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("E15 — QoS under %dx overload (%d servers, %d events vs budget %d, per class realtime/normal/bulk)",
			events/max(1, burst), servers, events, burst),
		"mode", "rt delivered", "rt p99", "nm prompt", "nm total", "blk prompt", "digests", "digest events",
		"admitted", "deferred", "coalesced")
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		r, err := RunQoSOverload(servers, events, burst, mode, seed)
		if err != nil {
			return nil, err
		}
		if err := qosOverloadCheck(r, 30*time.Second); err != nil {
			return nil, err
		}
		t.AddRow(r.Mode, r.RealtimeDelivered, r.RealtimeP99, r.NormalPrompt, r.NormalTotal,
			r.BulkPrompt, r.Digests, r.DigestEvents, r.Admitted, r.Deferred, r.Coalesced)
	}
	return t, nil
}
