package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/queue"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
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
	// The collection bucket is consumed at most once per event, and only
	// when the event actually fans out to quota-subject subscriptions.
	collChecked, collOK := false, true
	for _, m := range matches {
		if m.Profile.CompositeOf != "" {
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
			s.coalesceBulk(m.Profile.ID, m.Profile.Owner, ev, m.DocIDs, now, ctrl, qctx)
			coalesced++
			s.log.DebugCtx(qctx, "match coalesced",
				logging.String("profile", m.Profile.ID), logging.String("client", m.Profile.Owner))
			continue
		case qos.OutcomeDefer:
			if err := s.delivery.Defer(n); err != nil {
				refused++
			} else {
				deferred++
				s.log.DebugCtx(qctx, "match deferred",
					logging.String("profile", m.Profile.ID), logging.String("client", m.Profile.Owner))
			}
			continue
		}
		if err := s.delivery.Enqueue(n); err != nil {
			refused++
			continue
		}
		if ctrl != nil {
			admitted++
		}
		enqueued++
	}
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
// auxiliary profiles match (paper §4.2). Unreachable hosts leave the
// forward in the retry queue (paper §7 delayed-not-lost semantics).
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
		raw, err := ev.MarshalXMLBytes()
		if err != nil {
			continue
		}
		env, err := protocol.NewEnvelope(s.name, protocol.MsgEvent, &protocol.EventPayload{
			TransformTo: super.String(),
			Event:       protocol.Wrap(raw),
		})
		if err != nil {
			continue
		}
		env.Header.To = super.Host
		s.stats.auxForwards.Inc()
		s.sendOrQueue(ctx, "fwd:"+ev.ID+":"+super.String(), super.Host, env)
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
		return s.handleForwardedEvent(ctx, ev, payload.TransformTo)
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

// handleForwardedEvent processes an event forwarded over the GS network by
// a sub-collection's server: rename it to the named super-collection and
// publish the transformed event as our own (paper §4.2: "the originating
// collection is transformed from London.E to Hamilton.D").
func (s *Service) handleForwardedEvent(ctx context.Context, ev *event.Event, transformTo string) error {
	super, err := event.ParseQName(transformTo)
	if err != nil {
		return fmt.Errorf("core: bad transform target: %w", err)
	}
	if super.Host != s.name {
		return fmt.Errorf("core: transform target %s is not hosted by %s", transformTo, s.name)
	}
	if s.store != nil {
		if _, err := s.store.Get(super.Collection); err != nil {
			return fmt.Errorf("core: transform target %s: %w", transformTo, err)
		}
	}
	transformed, err := ev.Transformed(super)
	if err != nil {
		s.stats.cycleRefusals.Inc()
		var ce *event.CycleError
		if ok := asCycleError(err, &ce); ok {
			// Refusing the transform is the designed behaviour, not a
			// failure: the event already visited this collection.
			return nil
		}
		return err
	}
	s.stats.transforms.Inc()
	_, err = s.publishEvent(ctx, transformed)
	return err
}

func asCycleError(err error, target **event.CycleError) bool {
	for err != nil {
		if ce, ok := err.(*event.CycleError); ok {
			*target = ce
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// sendOrQueue attempts an immediate unicast to a named server, falling back
// to the retry queue when resolution or delivery fails.
func (s *Service) sendOrQueue(ctx context.Context, itemID, destServer string, env *protocol.Envelope) {
	if err := s.sendToServer(ctx, destServer, env); err != nil {
		s.stats.forwardingFailures.Inc()
		s.retry.Add(itemID, destServer, &queuedForward{destServer: destServer, env: env})
	}
}

// sendToServer resolves a server name and delivers env.
func (s *Service) sendToServer(ctx context.Context, destServer string, env *protocol.Envelope) error {
	if s.resolver == nil {
		return fmt.Errorf("core: no resolver configured on %s", s.name)
	}
	addr, err := s.resolver.Resolve(ctx, destServer)
	if err != nil {
		return err
	}
	if err := transport.SendOneWay(ctx, s.tr, addr, env); err != nil {
		if s.gdsCli != nil {
			s.gdsCli.InvalidateCache(destServer)
		}
		return err
	}
	return nil
}

// sendQueued is the retry queue's sender.
func (s *Service) sendQueued(ctx context.Context, item *queue.Item) error {
	qf, ok := item.Payload.(*queuedForward)
	if !ok {
		return fmt.Errorf("core: unexpected queue payload %T", item.Payload)
	}
	return s.sendToServer(ctx, qf.destServer, qf.env)
}

// ---------------------------------------------------------------------------
// Auxiliary profile management

// SyncAuxProfiles walks the local collection store and forwards an auxiliary
// profile to every remote sub-collection's host (paper §4.2), and cancels
// profiles for references that no longer exist. Call it after collection
// configuration changes. Unreachable hosts leave installs/cancels queued.
func (s *Service) SyncAuxProfiles(ctx context.Context) error {
	if s.store == nil {
		return nil
	}
	// Desired set: one aux profile per (super, remote sub) pair.
	type auxKey struct{ super, sub event.QName }
	desired := make(map[auxKey]bool)
	for _, coll := range s.store.All() {
		cfg := coll.Config()
		super := event.QName{Host: s.name, Collection: cfg.Name}
		for _, ref := range cfg.RemoteSubs() {
			sub := event.QName{Host: ref.Host, Collection: ref.Name}
			desired[auxKey{super: super, sub: sub}] = true
		}
	}

	s.mu.Lock()
	existing := make(map[string]string, len(s.forwardedAux))
	for id, dest := range s.forwardedAux {
		existing[id] = dest
	}
	s.mu.Unlock()

	// Install missing.
	for key := range desired {
		id := auxProfileID(key.super, key.sub)
		if _, ok := existing[id]; ok {
			delete(existing, id) // still desired
			continue
		}
		p := profile.NewAuxiliary(id, key.super, key.sub)
		raw, err := p.MarshalXMLBytes()
		if err != nil {
			return err
		}
		env, err := protocol.NewEnvelope(s.name, protocol.MsgForwardProfile, &protocol.ForwardProfile{Profile: protocol.Wrap(raw)})
		if err != nil {
			return err
		}
		env.Header.To = key.sub.Host
		s.mu.Lock()
		s.forwardedAux[id] = key.sub.Host
		s.mu.Unlock()
		s.stats.auxInstallsSent.Inc()
		s.sendOrQueue(ctx, "aux-install:"+id, key.sub.Host, env)
	}

	// Cancel the leftovers (references removed by restructuring).
	for id, dest := range existing {
		// A queued, never-delivered install is simply dropped.
		if s.retry.Remove("aux-install:" + id) {
			s.mu.Lock()
			delete(s.forwardedAux, id)
			s.mu.Unlock()
			continue
		}
		env, err := protocol.NewEnvelope(s.name, protocol.MsgCancelProfile, &protocol.CancelProfile{ProfileID: id})
		if err != nil {
			return err
		}
		env.Header.To = dest
		s.mu.Lock()
		delete(s.forwardedAux, id)
		s.mu.Unlock()
		s.stats.auxCancelsSent.Inc()
		s.sendOrQueue(ctx, "aux-cancel:"+id, dest, env)
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
	sortStrings(out)
	return out
}
