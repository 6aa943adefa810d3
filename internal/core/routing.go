package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/trace"
)

// PublishBuild routes the events of a finished collection build: local
// filtering + notification, auxiliary-profile forwarding over the GS
// network, and GDS flooding. It returns the time spent in local filtering,
// the quantity experiment E1 compares against the index build time.
func (s *Service) PublishBuild(ctx context.Context, res *collection.BuildResult) (time.Duration, error) {
	var filterTime time.Duration
	for _, ev := range res.Events {
		d, err := s.publishEvent(ctx, ev)
		filterTime += d
		if err != nil {
			return filterTime, err
		}
	}
	return filterTime, nil
}

// publishEvent handles an event originating at this server (a local build
// or a transform of a forwarded event).
func (s *Service) publishEvent(ctx context.Context, ev *event.Event) (time.Duration, error) {
	// Mark as seen so the GDS broadcast echo (if any) is suppressed.
	if s.dedup.Observe(ev.ID) {
		s.stats.duplicatesDropped.Inc()
		return 0, nil
	}
	s.stats.eventsPublished.Inc()

	// Root span of the event's end-to-end trace. Always timed — even when
	// head sampling passes — so the tail-retain rule can rescue slow
	// outliers; its context rides into the filter path and the disseminated
	// envelopes so every downstream hop chains onto the same trace.
	root := s.tracer.StartRoot(trace.StagePublish)
	root.SetAttr("event", ev.ID)
	tctx := root.Context()
	defer root.Finish()
	s.log.DebugCtx(tctx, "event published", logging.String("event", ev.ID))

	// 1. Local filtering + notification (+ aux matching), timed.
	filterTime := s.filterLocally(ev, tctx)

	// A promoted standby must keep suppressing duplicates of events the
	// primary already processed, so admissions replicate too — strictly
	// AFTER the notifications they produced: a crash between the two then
	// leaves the standby willing to re-filter the sender's retry
	// (duplicates, bounded), never holding a dedup entry for alerts it
	// doesn't have (loss).
	s.replicateDedup(ev.ID)

	// 2. Forward to super-collection hosts per matching aux profiles.
	s.forwardPerAuxProfiles(ctx, ev)

	// 3. Disseminate to other servers via the GDS (flooding by default,
	// interest-scoped multicast or content-based routing when enabled).
	if s.gdsCli != nil {
		if err := s.disseminate(ctx, ev, tctx); err != nil {
			// Best effort (paper §6): flooding failures are not fatal.
			s.stats.forwardingFailures.Inc()
			s.log.WarnCtx(tctx, "dissemination failed",
				logging.String("event", ev.ID), logging.String("error", err.Error()))
		} else {
			s.stats.broadcastsSent.Inc()
		}
	}
	return filterTime, nil
}

// filterLocally matches ev against local user profiles and enqueues one
// notification per match on the asynchronous delivery pipeline, returning
// the filtering duration. The match path never calls a client sink directly:
// delivery latency, slow clients and offline users are the pipeline's
// problem, not the matcher's. Matches of composite step profiles are not
// delivered — they drive the composite engine's state machines, whose
// completions re-enter the pipeline as synthesized notifications.
//
// With a QoS controller installed this is the admission point
// (docs/QOS.md): realtime matches bypass quotas, normal matches over the
// subscriber or collection quota are deferred to the mailbox (delayed, not
// lost), and bulk matches over quota are coalesced into a periodic digest
// through the composite engine. Composite step matches are not admission-
// checked — the state machines already dampen their volume, and their
// synthesized firings inherit the composite profile's class.
//
// When tctx carries a sampled trace (a local publish root or the context of
// an incoming GDS hop), the match pass is recorded as one StageMatch span
// and every admission decision as a StageQoS span whose "outcome" attribute
// is the qos.Outcome vocabulary; the qos span's context rides on the
// notification, so mailbox dwell of deferred traffic shows up as qos time
// in the attribution table (docs/TRACING.md).
func (s *Service) filterLocally(ev *event.Event, tctx trace.Context) time.Duration {
	start := time.Now()
	matches := s.matcher.Match(ev)
	elapsed := time.Since(start)

	s.stats.filterNanos.Add(int64(elapsed))
	now := time.Now()
	ctrl := s.qos.Load()

	mctx := s.tracer.Record(tctx, trace.StageMatch, start, elapsed, "",
		trace.Attr{Key: "matches", Value: strconv.Itoa(len(matches))})
	sampled := mctx.Sampled()

	var enqueued, refused, admitted, deferred, coalesced int64
	// Admitted matches collect on the stack and enter the pipeline one
	// chunk at a time: one replicated append record per chunk instead of
	// one per notification. The chunk is handed over before anything else
	// can append to a mailbox (a composite firing, a deferral), so mailbox
	// sequences stay in match order.
	var pending [delivery.EnqueueChunk]Notification
	npending := 0
	enqueuePending := func() {
		if npending == 0 {
			return
		}
		queued, _ := s.delivery.EnqueueAll(pending[:npending])
		enqueued += int64(queued)
		refused += int64(npending - queued)
		if ctrl != nil {
			admitted += int64(queued)
		}
		npending = 0
	}
	// The collection bucket is consumed at most once per event, and only
	// when the event actually fans out to quota-subject subscriptions.
	collChecked, collOK := false, true
	for _, m := range matches {
		if m.Profile.CompositeOf != "" {
			enqueuePending()
			// Matches are sorted by profile ID, so for one composite the
			// steps arrive in step order ("p#0" before "p#1") and an event
			// matching several steps advances the earliest ones first. The
			// ingest span is recorded at consumption time so the engine's
			// dwell (window waits, digest accumulation) is attributed to the
			// composite stage, not to matching.
			ictx := trace.Context{}
			if sampled {
				ictx = s.tracer.Record(mctx, trace.StageComposite, time.Now(), 0,
					m.Profile.Class.String(), trace.Attr{Key: "op", Value: "ingest"})
			}
			s.composite.OnPrimitiveCtx(m.Profile.CompositeOf, m.Profile.CompositeStep, ev, m.DocIDs, now, ictx)
			continue
		}
		n := Notification{
			Client:    m.Profile.Owner,
			ProfileID: m.Profile.ID,
			Event:     ev,
			DocIDs:    m.DocIDs,
			Class:     m.Profile.Class,
			At:        now,
		}
		// Admission decision first, span second: the span's outcome
		// attribute records what actually happened to the match.
		outcome := qos.OutcomeAdmit
		if ctrl != nil && m.Profile.Class == qos.ClassRealtime {
			outcome = qos.OutcomeBypass
		}
		if ctrl != nil && m.Profile.Class != qos.ClassRealtime {
			if !collChecked {
				collOK = ctrl.AllowCollection(ev.Collection.String())
				collChecked = true
			}
			// A dry collection bucket short-circuits: the subscriber's own
			// tokens are preserved for less noisy collections.
			if !collOK || !ctrl.AllowSubscriber(m.Profile.Owner) {
				if m.Profile.Class == qos.ClassBulk {
					outcome = qos.OutcomeCoalesce
				} else {
					outcome = qos.OutcomeDefer
				}
			}
		}
		var qctx trace.Context
		if sampled {
			qctx = s.tracer.Record(mctx, trace.StageQoS, time.Now(), 0,
				m.Profile.Class.String(), trace.Attr{Key: "outcome", Value: outcome.String()})
			n.Trace = qctx
		}
		switch outcome {
		case qos.OutcomeCoalesce:
			enqueuePending()
			s.coalesceBulk(m.Profile.ID, m.Profile.Owner, ev, m.DocIDs, now, ctrl, qctx)
			coalesced++
			s.log.DebugCtx(qctx, "match coalesced",
				logging.String("profile", m.Profile.ID), logging.String("client", m.Profile.Owner))
			continue
		case qos.OutcomeDefer:
			enqueuePending()
			if err := s.delivery.Defer(n); err != nil {
				refused++
			} else {
				deferred++
				s.log.DebugCtx(qctx, "match deferred",
					logging.String("profile", m.Profile.ID), logging.String("client", m.Profile.Owner))
			}
			continue
		}
		pending[npending] = n
		if npending++; npending == len(pending) {
			enqueuePending()
		}
	}
	enqueuePending()
	if enqueued|refused|admitted|deferred|coalesced != 0 { // most events match nothing here
		s.stats.notifications.Add(enqueued)
		s.stats.notifyFailures.Add(refused)
		s.stats.qosAdmitted.Add(admitted)
		s.stats.qosDeferred.Add(deferred)
		s.stats.qosCoalesced.Add(coalesced)
	}
	return elapsed
}

// forwardPerAuxProfiles sends ev to the hosts of super-collections whose
// auxiliary profiles match (paper §4.2). A forward to an unreachable host
// waits in its mailbox (paper §7 delayed-not-lost semantics).
func (s *Service) forwardPerAuxProfiles(ctx context.Context, ev *event.Event) {
	auxMatches := s.aux.Match(ev)
	for _, m := range auxMatches {
		super := m.Profile.Super
		// Cycle guard at the sender: if the event already carried this
		// super-collection's identity, forwarding would loop.
		skip := false
		for _, q := range ev.Chain {
			if q == super {
				skip = true
				break
			}
		}
		if skip {
			s.stats.cycleRefusals.Inc()
			continue
		}
		s.stats.auxForwards.Inc()
		s.sendOrQueue(ctx, forwardOp(protocol.MsgEvent, auxProfileID(super, m.Profile.Sub), ev))
	}
}

// disseminate hands ev to the directory as one MsgEvent envelope, routed by
// the current mode. Unsampled trace contexts stay off the wire: absent means
// unsampled, so pre-trace receivers and untraced runs see byte-identical
// envelopes.
func (s *Service) disseminate(ctx context.Context, ev *event.Event, tctx trace.Context) error {
	raw, err := ev.MarshalXMLBytes()
	if err != nil {
		return err
	}
	inner, err := protocol.NewEnvelope(s.name, protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap(raw)})
	if err != nil {
		return err
	}
	if tctx.Sampled() {
		inner.Header.Trace = tctx.String()
	}
	switch s.RoutingMode() {
	case RouteMulticast:
		// The collection's group, then the catch-all group.
		for _, group := range []string{collGroup(ev.Collection.String()), catchAllGroup} {
			if err := s.gdsCli.Multicast(ctx, group, inner); err != nil {
				return err
			}
		}
		return nil
	case RouteContent:
		// Flood instead while the warm-up window is open.
		s.mu.Lock()
		flood := time.Now().Before(s.contentFloodUntil)
		s.mu.Unlock()
		return s.gdsCli.RouteContent(ctx, ev.Attrs(), inner, flood)
	default:
		return s.gdsCli.Broadcast(ctx, inner)
	}
}

// HandleEventEnvelope processes an incoming MsgEvent, whether delivered by
// GDS flooding or forwarded point-to-point over the GS network.
func (s *Service) HandleEventEnvelope(ctx context.Context, env *protocol.Envelope) error {
	var payload protocol.EventPayload
	if err := protocol.Decode(env, protocol.MsgEvent, &payload); err != nil {
		return err
	}
	ev, err := event.UnmarshalXMLBytes(payload.Event.Bytes())
	if err != nil {
		return err
	}
	if payload.TransformTo != "" {
		return s.handleForwardedEvent(ctx, ev, payload.TransformTo, env.Header.From)
	}
	return s.handleFloodedEvent(ev, env)
}

// handleFloodedEvent processes an event received via GDS dissemination
// (broadcast, multicast or content routing): filter against local user
// profiles and notify. Flooded events are NOT re-matched against auxiliary
// profiles: the sub-collection's own server already forwarded the event
// over the GS network; re-forwarding from every flooded copy would
// duplicate transforms.
func (s *Service) handleFloodedEvent(ev *event.Event, env *protocol.Envelope) error {
	if s.dedup.Observe(ev.ID) {
		s.stats.duplicatesDropped.Inc()
		return nil
	}
	s.stats.eventsReceived.Inc()
	// Transit cost of the dissemination path, for the routing experiments:
	// virtual per-link latency on the memory transport, wall-clock
	// since-send otherwise.
	if env.Header.VirtualLatencyMicros > 0 {
		s.stats.receiveLatencyNanos.Add(int64(time.Duration(env.Header.VirtualLatencyMicros) * time.Microsecond))
	} else if env.Header.SentAtUnixNano > 0 {
		s.stats.receiveLatencyNanos.Add(int64(time.Now().Sub(time.Unix(0, env.Header.SentAtUnixNano))))
	}
	s.stats.receiveHops.Add(int64(env.Header.Hops))
	// Continue the publisher's trace: the envelope carries the context of
	// the last recorded hop span (or the publish root on one-hop paths), so
	// this server's match/qos spans chain under the dissemination path.
	tctx, _ := trace.Parse(env.Header.Trace)
	s.filterLocally(ev, tctx)
	// After filtering, as in publishEvent: the crash window between the
	// notification appends and the dedup record duplicates, never loses.
	s.replicateDedup(ev.ID)
	return nil
}

// handleForwardedEvent processes an event that server from forwarded over
// the GS network for one of its sub-collections: rename it to the named
// super-collection and publish the transformed event as our own (paper
// §4.2: "the originating collection is transformed from London.E to
// Hamilton.D").
func (s *Service) handleForwardedEvent(ctx context.Context, ev *event.Event, transformTo, from string) error {
	super, err := event.ParseQName(transformTo)
	if err != nil {
		return fmt.Errorf("core: bad transform target: %w", err)
	}
	if super.Host != s.name {
		return fmt.Errorf("core: transform target %s is not hosted by %s", transformTo, s.name)
	}
	transformed, err := ev.Transformed(super)
	if err != nil {
		s.stats.cycleRefusals.Inc()
		if errors.As(err, new(*event.CycleError)) {
			// Refusing the transform is the designed behaviour, not a
			// failure: the event already visited this collection.
			return nil
		}
		return err
	}
	// A dangling aux profile (paper §7) keeps forwarding for a super that
	// is gone or no longer includes the sub-collection: its cancel was
	// evicted, lost with an unpersisted forwardedAux, or is on its way.
	// Refuse the forward and cancel at the source. The cancel waits for the
	// sub's host only when that host sent the forward: a host name no
	// server vouched for gets one inline try, never a durable mailbox. A
	// local sub has no host, so it never matches.
	if s.store != nil {
		coll, err := s.store.Get(super.Collection)
		if err != nil || !slices.Contains(coll.Config().Subs, collection.SubRef{Host: ev.Collection.Host, Name: ev.Collection.Collection}) {
			s.stats.cycleRefusals.Inc()
			cancel := forwardOp(protocol.MsgCancelProfile, auxProfileID(super, ev.Collection), nil)
			if from == ev.Collection.Host {
				s.sendOrQueue(ctx, cancel)
			} else if dest, env, err := s.forwardEnvelope(cancel); err == nil {
				_ = s.sendToServer(ctx, dest, env)
			}
			if err != nil {
				return fmt.Errorf("core: transform target %s: %w", transformTo, err)
			}
			return nil
		}
	}
	s.stats.transforms.Inc()
	_, err = s.publishEvent(ctx, transformed)
	return err
}

// ---------------------------------------------------------------------------
// Auxiliary profile management

// SyncAuxProfiles walks the local collection store and forwards an auxiliary
// profile to every remote sub-collection's host (paper §4.2), and cancels
// profiles for references that no longer exist. Call it after collection
// configuration changes. Installs and cancels for unreachable hosts wait in
// their mailboxes.
func (s *Service) SyncAuxProfiles(ctx context.Context) error {
	if s.store == nil {
		return nil
	}
	// Desired set: one aux profile per (super, remote sub) pair.
	desired := make(map[string]bool)
	for _, coll := range s.store.All() {
		cfg := coll.Config()
		super := event.QName{Host: s.name, Collection: cfg.Name}
		for _, ref := range cfg.RemoteSubs() {
			desired[auxProfileID(super, event.QName{Host: ref.Host, Collection: ref.Name})] = true
		}
	}
	s.mu.Lock()
	sent := s.forwardedAux
	s.forwardedAux = desired
	s.mu.Unlock()
	for id := range desired {
		if !sent[id] {
			s.stats.auxInstallsSent.Inc()
			s.sendOrQueue(ctx, forwardOp(protocol.MsgForwardProfile, id, nil))
		}
	}
	// Cancel the leftovers (references removed by restructuring). A cancel
	// whose install still waits parks behind it; both are idempotent.
	for id := range sent {
		if !desired[id] {
			s.stats.auxCancelsSent.Inc()
			s.sendOrQueue(ctx, forwardOp(protocol.MsgCancelProfile, id, nil))
		}
	}
	return nil
}

// auxProfileID derives the deterministic identifier of the auxiliary
// profile watching sub on behalf of super. Determinism makes installs and
// cancels idempotent across restarts and retries (paper §7: "each forwarded
// collection profile is itself unique").
func auxProfileID(super, sub event.QName) string {
	return "aux:" + super.String() + ">" + sub.String()
}

// HandleForwardProfile installs an auxiliary profile pushed by a
// super-collection's server.
func (s *Service) HandleForwardProfile(env *protocol.Envelope) error {
	var fp protocol.ForwardProfile
	if err := protocol.Decode(env, protocol.MsgForwardProfile, &fp); err != nil {
		return err
	}
	p, err := profile.UnmarshalXMLBytes(fp.Profile.Bytes())
	if err != nil {
		return err
	}
	if p.Kind != profile.KindAuxiliary {
		return fmt.Errorf("core: forwarded profile %s is not auxiliary", p.ID)
	}
	if p.Sub.Host != s.name {
		return fmt.Errorf("core: aux profile %s watches %s, not hosted by %s", p.ID, p.Sub, s.name)
	}
	if err := s.aux.Add(p); err != nil {
		return err
	}
	s.replicateProfileAdd(p)
	return nil
}

// HandleCancelProfile removes a previously forwarded auxiliary profile.
// Cancelling an unknown profile is not an error (the install may never have
// arrived — exactly the dangling-profile scenario the design avoids).
func (s *Service) HandleCancelProfile(env *protocol.Envelope) error {
	var cp protocol.CancelProfile
	if err := protocol.Decode(env, protocol.MsgCancelProfile, &cp); err != nil {
		return err
	}
	s.aux.Remove(cp.ProfileID)
	s.replicateProfileRemove("", cp.ProfileID)
	return nil
}

// ForwardedAuxIDs lists the aux profiles this server has pushed out.
func (s *Service) ForwardedAuxIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.forwardedAux))
	for id := range s.forwardedAux {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
