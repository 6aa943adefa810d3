// Package core implements the paper's primary contribution: the per-server
// alerting service with hybrid routing (paper §4.2).
//
// Every Greenstone server runs one Service. User profiles are stored only at
// the server where the user defined them (the "unified single access point"
// with no orphan profiles, paper §1 problems 3–4). When a collection is
// (re)built the service:
//
//  1. filters the build's events against local user profiles and notifies
//     local clients;
//  2. matches local auxiliary profiles and forwards matching events over
//     the Greenstone network to the hosts of the referencing
//     super-collections, which rename ("transform") the event and publish
//     it as their own;
//  3. floods the events to every other Greenstone server via the GDS
//     broadcast, where step 1 repeats against that server's profiles.
//
// Auxiliary profile installation and event forwarding over the GS network
// wait in the delivery pipeline, one mailbox per destination server, so
// partitions delay rather than lose them (§7).
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/composite"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/filter"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// Resolver maps Greenstone server names to transport addresses. The GDS
// naming service implements it; tests may use a static table.
type Resolver interface {
	Resolve(ctx context.Context, name string) (string, error)
}

// StaticResolver is a fixed name table.
type StaticResolver map[string]string

// Resolve implements Resolver.
func (s StaticResolver) Resolve(_ context.Context, name string) (string, error) {
	addr, ok := s[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", gds.ErrNameNotFound, name)
	}
	return addr, nil
}

// Notification is what a client receives when one of its profiles matches.
// It is an alias of delivery.Notification: the match path hands matches to
// the asynchronous delivery pipeline without conversion.
type Notification = delivery.Notification

// Notifier delivers notifications to one client.
type Notifier interface {
	Notify(n Notification)
}

// BatchNotifier is an optional Notifier refinement: sinks that can deliver a
// whole batch in one transport round-trip (the pipeline's per-destination
// batching amortisation). A non-nil error parks the batch in the client's
// mailbox for redelivery on reconnect.
type BatchNotifier interface {
	Notifier
	NotifyBatch(ns []Notification) error
}

// NotifierFunc adapts a function to Notifier.
type NotifierFunc func(n Notification)

// Notify implements Notifier.
func (f NotifierFunc) Notify(n Notification) { f(n) }

// Config assembles a Service.
type Config struct {
	// ServerName is the Greenstone server's network-internal name.
	ServerName string
	// ServerAddr is the server's transport address (aux forwards arrive
	// there).
	ServerAddr string
	// Transport carries GS-network unicasts (aux profiles, forwarded
	// events).
	Transport transport.Transport
	// GDS is the directory client for broadcasting; nil disables flooding
	// (solitary installation).
	GDS *gds.Client
	// Resolver maps server names to addresses; defaults to GDS when nil.
	Resolver Resolver
	// Store provides the local collections (for auxiliary profile
	// synchronisation); may be nil for servers without collections.
	Store *collection.Store
	// Matcher is the filtering engine; defaults to equality-preferred.
	Matcher filter.Matcher
	// Delivery is the asynchronous notification pipeline. When nil the
	// service builds its own pipeline — from DeliveryConfig when set,
	// defaults otherwise — and closes it with the service; pass a
	// pre-built pipeline to share or manage it externally.
	Delivery *delivery.Pipeline
	// DeliveryConfig configures the service-owned pipeline built when
	// Delivery is nil; ignored otherwise.
	DeliveryConfig *delivery.Config
	// ContentWarmup is how long the service keeps flooding after switching
	// to RouteContent, while digest advertisements populate the directory's
	// routing tables. Negative disables the warm-up (deterministic
	// simulations); zero selects DefaultContentWarmup.
	ContentWarmup time.Duration
	// QoS enables admission control at the publish path (docs/QOS.md):
	// per-subscriber and per-collection token-bucket quotas, with
	// over-quota normal traffic deferred and over-quota bulk traffic
	// coalesced into digests. Nil disables admission (every match is
	// enqueued, as before), though priority classes still select delivery
	// scheduling weights.
	QoS *qos.Controller
	// Tracer records pipeline spans (docs/TRACING.md): a publish root per
	// originated event, match/qos/composite spans on the filter path, and
	// the context threaded into disseminated envelopes so downstream hops
	// chain onto the same trace. Nil disables tracing (the default); the
	// service also hands the tracer to a pipeline it builds itself.
	Tracer *trace.Tracer
	// Log is the service's component logger (docs/LOGGING.md): admission
	// outcomes at debug, dissemination failures at warn, routing-mode and
	// health-alert events at info, all carrying the active trace ID. Nil
	// disables logging at one pointer check per site; the service also
	// hands it to a pipeline it builds itself.
	Log *logging.Logger
}

// Service is the alerting service of one Greenstone server.
type Service struct {
	name     string
	addr     string
	tr       transport.Transport
	gdsCli   *gds.Client
	resolver Resolver
	store    *collection.Store

	matcher filter.Matcher // user profiles
	aux     filter.Matcher // auxiliary profiles installed at this server

	mu sync.Mutex
	// profilesByClient indexes user profile IDs per client for unsubscribe
	// bookkeeping and listing.
	profilesByClient map[string]map[string]bool
	// compositeProfiles holds registered composite (temporal) profiles by
	// ID; their primitive steps live in the matcher as marked step
	// profiles, their state machines in the composite engine.
	compositeProfiles map[string]*profile.Profile
	// forwardedAux records the IDs of the aux profiles this server pushed to
	// other servers.
	forwardedAux map[string]bool

	dedup *event.Dedup

	// composite drives the temporal state machines; its firings are
	// synthesized into notifications and enqueued on the delivery
	// pipeline, so composite alerts inherit durability and backpressure.
	composite    *composite.Engine
	compTickStop chan struct{}
	compTickWG   sync.WaitGroup

	// delivery decouples client notification from the match path; matched
	// notifications are enqueued, never delivered synchronously.
	delivery     *delivery.Pipeline
	ownsDelivery bool

	// routing selects broadcast (default), multicast or content
	// dissemination; interests records what the selective modes asked
	// the directory for (interests.go). contentFloodUntil keeps the flood
	// fallback open while content routing tables warm up.
	routing           RoutingMode
	interests         interests
	contentWarmup     time.Duration
	contentFloodUntil time.Time

	// replSink observes replicable state changes (profile churn, dedup
	// admissions) for the primary end of internal/replica; replStats is
	// the replication end whose counters Stats() merges.
	replSink  ReplicationSink
	replStats atomic.Pointer[ReplicaStatsProvider]

	// qos is the admission controller (nil = admission disabled), swappable
	// at runtime (SetQoS) under the publish path.
	qos atomic.Pointer[qos.Controller]

	// tracer records pipeline spans; nil *trace.Tracer no-ops, so the
	// untraced hot path pays one pointer check per call site.
	tracer *trace.Tracer

	// log is the scoped structured logger; nil *logging.Logger no-ops the
	// same way, so an unwired service pays one pointer check per site.
	log *logging.Logger

	idCounter atomic.Uint64
	stats     serviceCounters
}

// serviceCounters is the live, lock-free form of the ServiceStats fields the
// service itself counts; durations accumulate as nanoseconds.
type serviceCounters struct {
	eventsPublished, eventsReceived, duplicatesDropped metrics.Counter
	notifications, notifyFailures                      metrics.Counter
	auxForwards, transforms, cycleRefusals             metrics.Counter
	auxInstallsSent, auxCancelsSent                    metrics.Counter
	broadcastsSent, advertisementsSent                 metrics.Counter
	forwardingFailures, healthAlerts                   metrics.Counter
	filterNanos, receiveLatencyNanos, receiveHops      metrics.Counter
	qosAdmitted, qosDeferred, qosCoalesced, qosDigests metrics.Counter
}

// ServiceStats is the snapshot view of the service's externally visible
// work. The Composite* fields are filled from the composite engine at
// snapshot time.
type ServiceStats struct {
	EventsPublished    int64
	EventsReceived     int64
	DuplicatesDropped  int64
	Notifications      int64 // notifications enqueued to the delivery pipeline
	AuxForwards        int64 // events forwarded over the GS network
	Transforms         int64 // events renamed to a super-collection
	CycleRefusals      int64 // transforms refused: cycles and dangling forwards
	AuxInstallsSent    int64
	AuxCancelsSent     int64
	BroadcastsSent     int64
	AdvertisementsSent int64         // profile-digest advertisements (content routing)
	FilterTime         time.Duration // cumulative local filtering time
	NotifyFailures     int64         // notifications refused by the pipeline
	ForwardingFailures int64         // failed disseminations and parked forwards
	// ReceiveLatency accumulates the (virtual or wall-clock) transit
	// latency of events received via GDS dissemination; divide by
	// EventsReceived for the mean. ReceiveHops accumulates their relay
	// counts.
	ReceiveLatency time.Duration
	ReceiveHops    int64
	// Composite-engine state (internal/composite).
	CompositePrimitives     int64 // step matches consumed by state machines
	CompositeFirings        int64 // synthesized composite notifications
	CompositeDigestFlushes  int64 // non-empty digest flushes (subset of firings)
	CompositeWindowsExpired int64 // instances dropped by closed time windows
	CompositeLiveInstances  int64 // currently open instances (gauge)
	// Replication state (internal/replica), filled from the registered
	// ReplicaStatsProvider at snapshot time.
	ReplicaRole      string // "primary", "standby" or "" (off)
	ReplicaStreamSeq uint64 // stream envelopes sent (primary) / applied (standby)
	ReplicaStreamed  int64  // records shipped (primary) / envelopes applied (standby)
	ReplicaDropped   int64  // records dropped while no standby attached
	ReplicaErrors    int64  // stream transport / apply failures
	ReplicaSnapshots int64  // full snapshots sent or applied
	ReplicaResyncs   int64  // snapshot catch-ups after gaps
	ReplicaPromoted  bool   // standby has taken over
	// QoS admission accounting (internal/qos, nil controller = all zero).
	// Every non-composite-step match lands in exactly one of admitted,
	// deferred, coalesced or NotifyFailures — nothing is silently lost.
	QoSAdmitted  int64 // matches enqueued for immediate delivery (realtime always lands here)
	QoSDeferred  int64 // over-quota normal matches parked for delayed delivery
	QoSCoalesced int64 // over-quota bulk matches folded into a pending digest
	QoSDigests   int64 // coalesced digest notifications synthesized
	// ReplicaStreamLag is the primary's unconfirmed stream window (sent
	// minus standby-acknowledged envelopes); 0 on standbys and with
	// replication off. The health plane's replica-stream-lag rule reads it.
	ReplicaStreamLag uint64
	// HealthAlerts counts health-plane meta-alert events published into the
	// pipeline (PublishHealthAlert).
	HealthAlerts int64
}

// New assembles a Service from cfg. Forwards recovered from a durable
// pipeline stay parked until the serving role calls ResumeForwards.
func New(cfg Config) (*Service, error) {
	if cfg.ServerName == "" {
		return nil, errors.New("core: ServerName required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("core: Transport required")
	}
	s := &Service{
		name:              cfg.ServerName,
		addr:              cfg.ServerAddr,
		tr:                cfg.Transport,
		gdsCli:            cfg.GDS,
		resolver:          cfg.Resolver,
		store:             cfg.Store,
		matcher:           cfg.Matcher,
		aux:               filter.NewEqualityPreferred(),
		profilesByClient:  make(map[string]map[string]bool),
		compositeProfiles: make(map[string]*profile.Profile),
		forwardedAux:      make(map[string]bool),
		dedup:             event.NewDedup(0),
		routing:           RouteBroadcast,
	}
	s.composite = composite.NewEngine(composite.Config{Emit: s.emitComposite})
	s.contentWarmup = cfg.ContentWarmup
	if s.contentWarmup == 0 {
		s.contentWarmup = DefaultContentWarmup
	} else if s.contentWarmup < 0 {
		s.contentWarmup = 0
	}
	if s.matcher == nil {
		s.matcher = filter.NewEqualityPreferred()
	}
	s.qos.Store(cfg.QoS)
	s.tracer = cfg.Tracer
	s.log = cfg.Log
	if s.resolver == nil && s.gdsCli != nil {
		s.resolver = s.gdsCli
	}
	s.delivery = cfg.Delivery
	if s.delivery == nil {
		dcfg := delivery.Config{}
		if cfg.DeliveryConfig != nil {
			dcfg = *cfg.DeliveryConfig
		}
		if dcfg.Tracer == nil {
			dcfg.Tracer = cfg.Tracer
		}
		if dcfg.Log == nil && cfg.Log != nil {
			dcfg.Log = cfg.Log.Recorder().For("delivery")
		}
		p, err := delivery.NewPipeline(dcfg)
		if err != nil {
			return nil, err
		}
		s.delivery = p
		s.ownsDelivery = true
	}
	return s, nil
}

// Close stops the composite ticker and, when the service built its own
// delivery pipeline, flushes and closes it (compacting durable mailboxes). A
// pipeline supplied via Config.Delivery belongs to the caller and is left
// running.
func (s *Service) Close() error {
	s.stopCompositeTicker()
	if s.ownsDelivery {
		return s.delivery.Close()
	}
	return nil
}

// Delivery exposes the notification pipeline (metrics, pending mailboxes).
func (s *Service) Delivery() *delivery.Pipeline { return s.delivery }

// SetQoS installs (or, with nil, removes) the admission controller at
// runtime. In-flight deferred traffic and pending coalesced digests are
// unaffected: they drain through their normal paths.
func (s *Service) SetQoS(c *qos.Controller) { s.qos.Store(c) }

// QoS returns the installed admission controller (nil when disabled).
func (s *Service) QoS() *qos.Controller { return s.qos.Load() }

// DrainDeliveries blocks until every enqueued notification is delivered or
// parked. Simulations and tests call it to observe a quiescent state;
// notifications parked for detached clients stay in their mailboxes.
func (s *Service) DrainDeliveries(ctx context.Context) error {
	return s.delivery.Drain(ctx)
}

// Name returns the server name.
func (s *Service) Name() string { return s.name }

// Stats returns a snapshot of counters, merging the composite engine's and
// the replication end's. It never takes s.mu: every counter is an atomic,
// so a scrape cannot stall (or be stalled by) the publish path.
func (s *Service) Stats() ServiceStats {
	c := &s.stats
	cs := s.composite.Stats()
	out := ServiceStats{
		EventsPublished:    c.eventsPublished.Value(),
		EventsReceived:     c.eventsReceived.Value(),
		DuplicatesDropped:  c.duplicatesDropped.Value(),
		Notifications:      c.notifications.Value(),
		AuxForwards:        c.auxForwards.Value(),
		Transforms:         c.transforms.Value(),
		CycleRefusals:      c.cycleRefusals.Value(),
		AuxInstallsSent:    c.auxInstallsSent.Value(),
		AuxCancelsSent:     c.auxCancelsSent.Value(),
		BroadcastsSent:     c.broadcastsSent.Value(),
		AdvertisementsSent: c.advertisementsSent.Value(),
		FilterTime:         time.Duration(c.filterNanos.Value()),
		NotifyFailures:     c.notifyFailures.Value(),
		ForwardingFailures: c.forwardingFailures.Value(),
		ReceiveLatency:     time.Duration(c.receiveLatencyNanos.Value()),
		ReceiveHops:        c.receiveHops.Value(),
		QoSAdmitted:        c.qosAdmitted.Value(),
		QoSDeferred:        c.qosDeferred.Value(),
		QoSCoalesced:       c.qosCoalesced.Value(),
		QoSDigests:         c.qosDigests.Value(),
		HealthAlerts:       c.healthAlerts.Value(),

		CompositePrimitives:     cs.Primitives,
		CompositeFirings:        cs.Firings,
		CompositeDigestFlushes:  cs.DigestFlushes,
		CompositeWindowsExpired: cs.WindowsExpired,
		CompositeLiveInstances:  cs.LiveInstances,
	}
	if rp := s.replStats.Load(); rp != nil && *rp != nil {
		rs := (*rp).ReplicaStats()
		out.ReplicaRole = rs.Role
		out.ReplicaStreamSeq = rs.StreamSeq
		out.ReplicaStreamed = rs.Streamed
		out.ReplicaDropped = rs.Dropped
		out.ReplicaErrors = rs.Errors
		out.ReplicaSnapshots = rs.Snapshots
		out.ReplicaResyncs = rs.Resyncs
		out.ReplicaPromoted = rs.Promoted
		out.ReplicaStreamLag = rs.StreamLag
	}
	return out
}

// nextID mints a server-scoped unique identifier.
func (s *Service) nextID(prefix string) string {
	n := s.idCounter.Add(1)
	return s.name + "-" + prefix + "-" + strconv.FormatUint(n, 10)
}

// ---------------------------------------------------------------------------
// Subscriptions (user profiles)

// RegisterNotifier attaches a delivery sink for a client and drains any
// notifications parked in the client's mailbox while it was away (paper §7
// reconnect semantics, extended from profiles to notifications). The
// pipeline owns the registration; the service keeps no sink state. A client
// name reserved for a destination server's mailbox (forward.go) is ignored.
func (s *Service) RegisterNotifier(client string, n Notifier) {
	if isForwardKey(client) {
		return
	}
	s.delivery.Attach(client, delivererFor(n))
}

// delivererFor adapts a Notifier to the pipeline's batch deliverer,
// preferring one round-trip per batch when the sink supports it.
func delivererFor(n Notifier) delivery.Deliverer {
	return func(_ string, batch []Notification) error {
		if bn, ok := n.(BatchNotifier); ok {
			return bn.NotifyBatch(batch)
		}
		for _, x := range batch {
			n.Notify(x)
		}
		return nil
	}
}

// UnregisterNotifier removes a client's sink; subsequent notifications park
// in the client's mailbox until it re-registers. Reserved names are ignored.
func (s *Service) UnregisterNotifier(client string) {
	if isForwardKey(client) {
		return
	}
	s.delivery.Detach(client)
}

// Subscribe registers a user profile owned by client. The profile's ID is
// assigned by the service and returned.
func (s *Service) Subscribe(client string, expr profile.Expr) (string, error) {
	p := profile.NewUser(s.nextID("p"), client, s.name, expr)
	return p.ID, s.addUserProfile(p)
}

// SubscribeQuery registers a continuous-search profile for a collection
// (paper §5: search queries as profile queries).
func (s *Service) SubscribeQuery(client string, coll event.QName, field, query string) (string, error) {
	p, err := profile.FromSearchQuery(s.nextID("p"), client, s.name, coll, field, query)
	if err != nil {
		return "", err
	}
	return p.ID, s.addUserProfile(p)
}

// WatchDocuments registers a "watch this" identity-centred profile.
func (s *Service) WatchDocuments(client string, coll event.QName, docIDs []string) (string, error) {
	p, err := profile.WatchThis(s.nextID("p"), client, s.name, coll, docIDs)
	if err != nil {
		return "", err
	}
	return p.ID, s.addUserProfile(p)
}

// SubscribeProfile registers a caller-constructed user profile.
func (s *Service) SubscribeProfile(p *profile.Profile) error {
	if p.Kind != profile.KindUser {
		return fmt.Errorf("core: SubscribeProfile requires a user profile, got %s", p.Kind)
	}
	return s.addUserProfile(p)
}

func (s *Service) addUserProfile(p *profile.Profile) error {
	if isForwardKey(p.Owner) {
		return fmt.Errorf("core: client name %q is reserved", p.Owner)
	}
	if p.IsComposite() {
		if err := s.addCompositeProfile(p); err != nil {
			return err
		}
		s.replicateProfileAdd(p)
		return nil
	}
	if err := s.matcher.Add(p); err != nil {
		return err
	}
	s.mu.Lock()
	set := s.profilesByClient[p.Owner]
	if set == nil {
		set = make(map[string]bool)
		s.profilesByClient[p.Owner] = set
	}
	set[p.ID] = true
	mode := s.routing
	s.mu.Unlock()
	if mode != RouteBroadcast {
		// A new profile may join groups or widen the advertised digest.
		s.addInterest(p)
	}
	s.replicateProfileAdd(p)
	return nil
}

// Unsubscribe removes a user profile. Removing an unknown or foreign
// profile is an error (clients can only cancel their own profiles).
func (s *Service) Unsubscribe(client, profileID string) error {
	s.mu.Lock()
	cp := s.compositeProfiles[profileID]
	s.mu.Unlock()
	if cp != nil {
		return s.removeCompositeProfile(client, cp)
	}
	p, ok := s.matcher.Get(profileID)
	if !ok {
		return fmt.Errorf("core: unknown profile %q", profileID)
	}
	if p.CompositeOf != "" {
		// Step profiles are derived state; removing one would silently
		// cripple the parent's state machine.
		return fmt.Errorf("core: %q is a step of composite profile %q; unsubscribe the composite instead", profileID, p.CompositeOf)
	}
	if p.Owner != client {
		return fmt.Errorf("core: profile %q belongs to %q, not %q", profileID, p.Owner, client)
	}
	s.matcher.Remove(profileID)
	// Any digest pending from QoS bulk coalescing dies with the profile:
	// the subscriber cancelled, so its shed backlog is no longer owed.
	s.composite.Remove(qosDigestID(profileID))
	s.mu.Lock()
	if set := s.profilesByClient[client]; set != nil {
		delete(set, profileID)
		if len(set) == 0 {
			delete(s.profilesByClient, client)
		}
	}
	mode := s.routing
	s.mu.Unlock()
	if mode != RouteBroadcast {
		// A removed profile may leave groups or narrow the digest, which
		// lets the directory prune this server again.
		s.removeInterest(profileID)
	}
	s.replicateProfileRemove(client, profileID)
	return nil
}

// ProfilesOf lists a client's profile IDs.
func (s *Service) ProfilesOf(client string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.profilesByClient[client]
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// UserProfileCount reports registered user profiles.
func (s *Service) UserProfileCount() int { return s.matcher.Len() }

// AuxProfileCount reports installed auxiliary profiles.
func (s *Service) AuxProfileCount() int { return s.aux.Len() }
