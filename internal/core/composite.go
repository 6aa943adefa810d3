package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/gsalert/gsalert/internal/composite"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/trace"
)

// Composite (temporal) profiles: the subscription side registers the
// profile's primitive steps with the ordinary matcher (marked with
// CompositeOf/CompositeStep) and its state machine with the composite
// engine; the match path routes step hits to the engine instead of the
// delivery pipeline; engine firings come back through emitComposite as
// synthesized notifications. Routing layers see only the union of the
// primitive steps (Profile.Expr), so multicast covers and content digests
// keep pruning correctly without temporal knowledge.

// SubscribeComposite registers a composite profile written in the temporal
// wrapper grammar, e.g.
//
//	SEQUENCE (collection = "H.C" AND event.type = "documents-added")
//	    THEN (event.type = "collection-rebuilt") WITHIN 24h
//	COUNT 10 OF (collection = "H.C") WITHIN 7d
//	DIGEST (collection = "H.C") EVERY 24h
//
// The profile's ID is assigned by the service and returned.
func (s *Service) SubscribeComposite(client, src string) (string, error) {
	_, c, err := profile.ParseText(src)
	if err != nil {
		return "", err
	}
	if c == nil {
		return "", fmt.Errorf("core: %q is not a composite expression (use Subscribe for primitive profiles)", src)
	}
	p, err := profile.NewComposite(s.nextID("p"), client, s.name, c)
	if err != nil {
		return "", err
	}
	return p.ID, s.addUserProfile(p)
}

// addCompositeProfile installs a composite profile: state machine first,
// then the primitive step profiles, then bookkeeping and routing
// advertisement. Re-adding an existing ID replaces it (the matcher's
// contract for primitive profiles, which snapshot restores rely on),
// dropping the previous registration's live state. Called from
// addUserProfile.
func (s *Service) addCompositeProfile(p *profile.Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	prev := s.compositeProfiles[p.ID]
	s.mu.Unlock()
	if prev != nil {
		if err := s.removeCompositeProfile(prev.Owner, prev); err != nil {
			return err
		}
	}
	if err := s.composite.Register(p, s.clock()); err != nil {
		return err
	}
	steps := p.StepProfiles()
	for i, sp := range steps {
		if err := s.matcher.Add(sp); err != nil {
			for _, prev := range steps[:i] {
				s.matcher.Remove(prev.ID)
			}
			s.composite.Remove(p.ID)
			return err
		}
	}
	s.mu.Lock()
	set := s.profilesByClient[p.Owner]
	if set == nil {
		set = make(map[string]bool)
		s.profilesByClient[p.Owner] = set
	}
	set[p.ID] = true
	s.compositeProfiles[p.ID] = p
	multicast := s.routing == RouteMulticast
	s.mu.Unlock()
	if multicast {
		// Best effort, as for primitive profiles: the groups of the union
		// expression cover every event any step could consume.
		_ = s.joinGroupsFor(context.Background(), p)
	}
	// Content mode advertises the union of the primitive steps; the
	// matcher now holds exactly those steps, so the incremental digest
	// merge and a full recompute agree.
	s.readvertiseOnChurn(p)
	return nil
}

// removeCompositeProfile tears a composite profile down. Called from
// Unsubscribe.
func (s *Service) removeCompositeProfile(client string, p *profile.Profile) error {
	if p.Owner != client {
		return fmt.Errorf("core: profile %q belongs to %q, not %q", p.ID, p.Owner, client)
	}
	s.composite.Remove(p.ID)
	for _, sp := range p.StepProfiles() {
		s.matcher.Remove(sp.ID)
	}
	s.mu.Lock()
	delete(s.compositeProfiles, p.ID)
	if set := s.profilesByClient[client]; set != nil {
		delete(set, p.ID)
		if len(set) == 0 {
			delete(s.profilesByClient, client)
		}
	}
	multicast := s.routing == RouteMulticast
	s.mu.Unlock()
	if multicast {
		s.leaveGroupsFor(context.Background(), p.ID)
	}
	s.readvertiseOnChurn(nil)
	s.replicateProfileRemove(client, p.ID)
	return nil
}

// CompositeProfileCount reports registered composite profiles.
func (s *Service) CompositeProfileCount() int { return s.composite.Len() }

// qosDigestPrefix namespaces the synthetic digest definitions the QoS
// degradation path registers in the composite engine, one per bulk profile
// whose traffic overflowed its quota. The prefix keeps them disjoint from
// real composite profile IDs; the firing's notification carries the
// original profile ID, so subscribers see a digest for the profile they
// subscribed.
const qosDigestPrefix = "qos-digest:"

// qosDigestID derives the synthetic digest ID coalescing a bulk profile's
// over-quota matches.
func qosDigestID(profileID string) string { return qosDigestPrefix + profileID }

// coalesceBulk folds one over-quota bulk-class match into the profile's
// pending digest, creating the digest definition on first overflow. The
// digest flushes on the composite tick once the controller's coalescing
// period elapses. tctx is the match's StageQoS span (outcome=coalesce):
// threading it — rather than a fresh ingest span — attributes the digest's
// accumulation dwell to the qos stage, where QoS-degraded latency belongs.
func (s *Service) coalesceBulk(profileID, owner string, ev *event.Event, docIDs []string, now time.Time, ctrl *qos.Controller, tctx trace.Context) {
	id := qosDigestID(profileID)
	s.composite.EnsureDigest(id, owner, ctrl.BulkDigestEvery(), now)
	s.composite.OnPrimitiveCtx(id, 0, ev, docIDs, now, tctx)
}

// emitComposite turns an engine firing into a synthesized notification on
// the delivery pipeline. The synthesized event is a local artefact: it is
// never disseminated over the GDS, never matched against profiles, and
// carries the identity of the last contributing event so clients can still
// tell which collection completed the composite.
func (s *Service) emitComposite(f composite.Firing) {
	if len(f.Events) == 0 {
		return
	}
	profileID := f.ProfileID
	class := qos.ClassNormal
	qosDigest := false
	if orig, ok := strings.CutPrefix(profileID, qosDigestPrefix); ok {
		// A QoS coalescing digest: deliver under the subscribed profile's
		// own ID, in the bulk class it degraded from.
		profileID = orig
		class = qos.ClassBulk
		qosDigest = true
	} else {
		s.mu.Lock()
		if p := s.compositeProfiles[f.ProfileID]; p != nil {
			class = p.Class
		}
		s.mu.Unlock()
	}
	last := f.Events[len(f.Events)-1]
	synth := &event.Event{
		ID:           s.nextID("comp"),
		Type:         event.TypeCompositeAlert,
		Collection:   last.Collection,
		Origin:       last.Origin,
		BuildVersion: last.BuildVersion,
		OccurredAt:   f.At,
	}
	// The fire span marks when the state machine completed; the gap back to
	// its parent (the ingest or coalesce span) is the engine's dwell, and
	// the gap forward to queue-wait is enqueue admission.
	var fctx trace.Context
	if f.Trace.Sampled() {
		fctx = s.tracer.Record(f.Trace, trace.StageComposite, time.Now(), 0,
			class.String(), trace.Attr{Key: "op", Value: "fire"}, trace.Attr{Key: "kind", Value: f.Kind.String()})
	}
	err := s.delivery.Enqueue(Notification{
		Client:       f.Owner,
		ProfileID:    profileID,
		Event:        synth,
		DocIDs:       f.DocIDs,
		Composite:    f.Kind.String(),
		Contributing: f.Events,
		Class:        class,
		At:           f.At,
		Trace:        fctx,
	})
	if err != nil {
		s.stats.notifyFailures.Inc()
		return
	}
	s.stats.notifications.Inc()
	if qosDigest {
		s.stats.qosDigests.Inc()
	}
}

// CompositeTick advances the composite engine's clock: expired windows are
// garbage-collected and due digests flushed as of at. Live deployments
// drive it from StartCompositeTicker; deterministic simulations call it
// directly (possibly with future times) instead of sleeping.
func (s *Service) CompositeTick(at time.Time) {
	s.composite.Tick(at)
}

// ErrTickerRunning reports a second StartCompositeTicker.
var ErrTickerRunning = errors.New("core: composite ticker already running")

// StartCompositeTicker runs CompositeTick on the interval until Close.
// Digest flush latency (and window-GC promptness) is bounded by the
// interval; gs-server defaults to one second.
func (s *Service) StartCompositeTicker(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("core: composite tick interval must be positive")
	}
	s.mu.Lock()
	if s.compTickStop != nil {
		s.mu.Unlock()
		return ErrTickerRunning
	}
	stop := make(chan struct{})
	s.compTickStop = stop
	s.mu.Unlock()
	s.compTickWG.Add(1)
	go func() {
		defer s.compTickWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				s.composite.Tick(s.clock())
			}
		}
	}()
	return nil
}

// stopCompositeTicker halts the ticker goroutine, if any; Close calls it.
func (s *Service) stopCompositeTicker() {
	s.mu.Lock()
	stop := s.compTickStop
	s.compTickStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		s.compTickWG.Wait()
	}
}
