// Package qos implements the admission-control and scheduling subsystem
// behind graceful overload degradation. The paper's delivery story (§7)
// treats every notification as equally urgent and every subscriber as
// well-behaved; at production scale one hot collection or one greedy
// subscriber can starve everyone else, and undifferentiated backpressure (a
// full delivery queue blocks every producer) punishes all traffic
// identically.
//
// This package adds three mechanisms, consumed by internal/core and
// internal/delivery:
//
//   - Class: a per-subscription priority class (realtime / normal / bulk)
//     carried in the profile wire form, into the delivery pipeline's items
//     and WAL records, and onto notification envelopes.
//   - Controller: per-subscriber and per-collection token buckets checked at
//     the publish path. Over-quota traffic is never silently lost — it is
//     degraded: normal-class notifications are deferred to the mailbox,
//     bulk-class notifications are coalesced into a digest (the composite
//     engine's digest machinery).
//   - Scheduler: a weighted deficit-round-robin policy the delivery
//     pipeline uses to service its per-class shard queues, so realtime
//     latency stays bounded while bulk drains in the gaps.
//
// The degradation ladder, most- to least-favoured: realtime is never shed
// (it bypasses quota checks); normal is deferred but individually delivered;
// bulk collapses to one digest notification per flush period.
package qos

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Class is the priority class of a subscription and of the notifications it
// produces. The zero value is ClassNormal so untagged profiles (and wire
// forms predating the class field) behave exactly as before.
type Class uint8

// Priority classes.
const (
	// ClassNormal is the default: subject to quotas, deferred (not dropped)
	// when over quota.
	ClassNormal Class = iota
	// ClassRealtime is never shed: it bypasses quota checks and is serviced
	// first by the delivery scheduler.
	ClassRealtime
	// ClassBulk is shed first: over-quota bulk notifications are coalesced
	// into a periodic digest instead of delivered per event.
	ClassBulk
	// NumClasses sizes per-class arrays.
	NumClasses = 3
)

// ByPriority lists the classes highest-priority first — the service order of
// the delivery scheduler.
var ByPriority = [NumClasses]Class{ClassRealtime, ClassNormal, ClassBulk}

// String names the class (the wire and flag form).
func (c Class) String() string {
	switch c {
	case ClassRealtime:
		return "realtime"
	case ClassNormal:
		return "normal"
	case ClassBulk:
		return "bulk"
	default:
		return fmt.Sprintf("class-%d", int(c))
	}
}

// ParseClass inverts Class.String. The empty string is ClassNormal, so
// profiles serialized before the class field existed parse unchanged.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "normal":
		return ClassNormal, nil
	case "realtime":
		return ClassRealtime, nil
	case "bulk":
		return ClassBulk, nil
	default:
		return ClassNormal, fmt.Errorf("qos: unknown class %q (want realtime, normal or bulk)", s)
	}
}

// Outcome names an admission decision on the publish path — the value of
// the qos span's "outcome" attribute in event traces, closing the loop
// between the degradation ladder and latency attribution (a deferred
// notification's queue-wait is explained by its outcome=defer span).
type Outcome uint8

// Admission outcomes.
const (
	// OutcomeAdmit: within quota, enqueued normally.
	OutcomeAdmit Outcome = iota
	// OutcomeBypass: realtime traffic, quota checks skipped.
	OutcomeBypass
	// OutcomeDefer: over-quota normal traffic parked in the mailbox.
	OutcomeDefer
	// OutcomeCoalesce: over-quota bulk traffic folded into a digest.
	OutcomeCoalesce
)

// String names the outcome (the span-attribute form).
func (o Outcome) String() string {
	switch o {
	case OutcomeAdmit:
		return "admit"
	case OutcomeBypass:
		return "bypass"
	case OutcomeDefer:
		return "defer"
	case OutcomeCoalesce:
		return "coalesce"
	default:
		return fmt.Sprintf("outcome-%d", int(o))
	}
}

// ---------------------------------------------------------------------------
// Token buckets

// bucket is one token bucket. Tokens refill continuously at rate/sec up to
// burst; a take consumes one token.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills by elapsed time and consumes one token if available.
func (b *bucket) take(rate float64, burst float64, now time.Time) bool {
	if b.last.IsZero() {
		b.tokens = burst
	} else if rate > 0 {
		b.tokens = math.Min(burst, b.tokens+rate*now.Sub(b.last).Seconds())
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// bucketShards spreads the per-key bucket maps over independently locked
// shards so concurrent admissions for different subscribers rarely contend.
const bucketShards = 16

// maxBucketsPerShard bounds one shard's bucket map (64k keys total across
// shards); beyond it, idle buckets are evicted. The cap keeps a
// long-running controller from accreting one bucket per transient
// subscriber or collection forever.
const maxBucketsPerShard = 4096

// bucketIdleEvict is how long a bucket must sit untouched before the cap
// sweep may reclaim it.
const bucketIdleEvict = 10 * time.Minute

// fnv32a is an allocation-free FNV-1a over the key: shard selection sits on
// the per-match publish hot path, where hash.Hash32 plus a []byte copy per
// admission would dominate the check itself.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// bucketSet is a sharded-lock map of token buckets keyed by subscriber or
// collection name.
type bucketSet struct {
	shards [bucketShards]struct {
		mu sync.Mutex
		m  map[string]*bucket
	}
}

func newBucketSet() *bucketSet {
	s := &bucketSet{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*bucket)
	}
	return s
}

// take consumes one token from key's bucket, creating it full on first use.
func (s *bucketSet) take(key string, rate float64, burst float64, now time.Time) bool {
	sh := &s.shards[fnv32a(key)%bucketShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.m[key]
	if b == nil {
		if len(sh.m) >= maxBucketsPerShard {
			// Evict idle buckets; if everything is hot, drop arbitrary
			// entries. Forgetting a bucket errs toward delivering — it is
			// recreated full on next use — which is the safe direction for
			// an admission control whose job is protecting, not billing.
			evictLocked(sh.m, now)
		}
		b = &bucket{}
		sh.m[key] = b
	}
	return b.take(rate, burst, now)
}

// evictLocked reclaims idle buckets from one shard map, falling back to
// arbitrary eviction when nothing is idle.
func evictLocked(m map[string]*bucket, now time.Time) {
	cutoff := now.Add(-bucketIdleEvict)
	for k, b := range m {
		if b.last.Before(cutoff) {
			delete(m, k)
		}
	}
	for k := range m {
		if len(m) < maxBucketsPerShard {
			break
		}
		delete(m, k)
	}
}

// ---------------------------------------------------------------------------
// Admission controller

// DefaultBulkDigestEvery is the coalescing period for over-quota bulk
// traffic when Config.BulkDigestEvery is zero.
const DefaultBulkDigestEvery = 30 * time.Second

// Config assembles a Controller. A burst of zero (or less) disables that
// quota dimension entirely; a rate of zero makes the bucket burst-only (no
// refill), which deterministic simulations use.
type Config struct {
	// SubscriberRate is the sustained notifications/sec each subscriber may
	// receive across non-realtime classes.
	SubscriberRate float64
	// SubscriberBurst is the per-subscriber bucket capacity. <= 0 disables
	// per-subscriber quotas.
	SubscriberBurst int
	// CollectionRate is the sustained events/sec one collection may push
	// through non-realtime subscriptions.
	CollectionRate float64
	// CollectionBurst is the per-collection bucket capacity. <= 0 disables
	// per-collection quotas.
	CollectionBurst int
	// BulkDigestEvery is the coalescing period for over-quota bulk traffic:
	// shed bulk notifications accrue and flush as one digest per period.
	// Zero selects DefaultBulkDigestEvery.
	BulkDigestEvery time.Duration
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
}

// Controller enforces the quotas of one server's publish path. All methods
// are safe for concurrent use.
type Controller struct {
	cfg         Config
	subscribers *bucketSet
	collections *bucketSet
}

// NewController builds a controller from cfg.
func NewController(cfg Config) *Controller {
	if cfg.BulkDigestEvery <= 0 {
		cfg.BulkDigestEvery = DefaultBulkDigestEvery
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Controller{
		cfg:         cfg,
		subscribers: newBucketSet(),
		collections: newBucketSet(),
	}
}

// BulkDigestEvery reports the coalescing period for shed bulk traffic.
func (c *Controller) BulkDigestEvery() time.Duration { return c.cfg.BulkDigestEvery }

// AllowSubscriber consumes one token from the subscriber's bucket,
// reporting whether the notification is within quota. Realtime traffic must
// not be passed here — it bypasses quotas by design.
func (c *Controller) AllowSubscriber(subscriber string) bool {
	if c.cfg.SubscriberBurst <= 0 {
		return true
	}
	return c.subscribers.take(subscriber, c.cfg.SubscriberRate, float64(c.cfg.SubscriberBurst), c.cfg.Clock())
}

// AllowCollection consumes one token from the collection's bucket, reporting
// whether this event's non-realtime fan-out is within the collection quota.
func (c *Controller) AllowCollection(collection string) bool {
	if c.cfg.CollectionBurst <= 0 {
		return true
	}
	return c.collections.take(collection, c.cfg.CollectionRate, float64(c.cfg.CollectionBurst), c.cfg.Clock())
}

// BucketLevels summarises one quota dimension's live token buckets for
// monitoring: how many keys are tracked and how many tokens they hold in
// aggregate. Tokens are the raw stored levels (no refill-to-now), so an
// idle dimension reads as its last admitted state.
type BucketLevels struct {
	Buckets int
	Tokens  float64
}

// ControllerStats is a point-in-time view of the controller's bucket maps
// (the "is admission control biting?" panel: aggregate tokens near zero
// across many buckets means quotas are saturated).
type ControllerStats struct {
	Subscribers BucketLevels
	Collections BucketLevels
}

// Stats snapshots the controller's bucket levels across both dimensions.
func (c *Controller) Stats() ControllerStats {
	return ControllerStats{
		Subscribers: c.subscribers.levels(),
		Collections: c.collections.levels(),
	}
}

// levels sums one bucketSet's population and stored tokens.
func (s *bucketSet) levels() BucketLevels {
	var out BucketLevels
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out.Buckets += len(sh.m)
		for _, b := range sh.m {
			out.Tokens += b.tokens
		}
		sh.mu.Unlock()
	}
	return out
}

// ---------------------------------------------------------------------------
// Weighted-fair scheduler

// DefaultWeights is the per-class service ratio of the delivery scheduler:
// under saturation one full recharge cycle serves 8 realtime, 4 normal and 1
// bulk item.
var DefaultWeights = [NumClasses]int{ClassRealtime: 8, ClassNormal: 4, ClassBulk: 1}

// Scheduler is a weighted deficit-round-robin policy across classes. Each
// class holds credit replenished from its weight; Pick serves the
// highest-priority ready class with credit, recharging every class when
// credit runs out while work remains. It is a pure policy object — the
// caller owns the queues — and Pick is NOT safe for concurrent use: each
// delivery shard worker owns one. Credits() alone may be called from other
// goroutines (the credits are atomics precisely so an observability scrape
// can read a live scheduler's deficits without stalling its worker).
type Scheduler struct {
	credit [NumClasses]atomic.Int64
}

// NewScheduler builds a scheduler serving DefaultWeights.
func NewScheduler() *Scheduler {
	s := &Scheduler{}
	for c := 0; c < NumClasses; c++ {
		s.credit[c].Store(int64(DefaultWeights[c]))
	}
	return s
}

// Credits reports the remaining DRR deficit credit per class — how much of
// the current recharge cycle each class may still consume. Safe to call
// concurrently with the owning worker's Pick loop.
func (s *Scheduler) Credits() [NumClasses]int64 {
	var out [NumClasses]int64
	for c := 0; c < NumClasses; c++ {
		out[c] = s.credit[c].Load()
	}
	return out
}

// Pick selects the next class to serve. ready reports whether a class has
// queued work; ok is false when no class is ready. Spent credit is the
// fairness memory: a burst of realtime can pre-empt at most its weight per
// cycle before bulk is guaranteed a turn.
func (s *Scheduler) Pick(ready func(Class) bool) (Class, bool) {
	for pass := 0; pass < 2; pass++ {
		for _, c := range ByPriority {
			if s.credit[c].Load() > 0 && ready(c) {
				s.credit[c].Add(-1)
				return c, true
			}
		}
		// Either nothing is ready, or every ready class is out of credit:
		// recharge and try once more.
		any := false
		for _, c := range ByPriority {
			if ready(c) {
				any = true
			}
			s.credit[c].Store(int64(DefaultWeights[c]))
		}
		if !any {
			return ClassNormal, false
		}
	}
	return ClassNormal, false
}

// ---------------------------------------------------------------------------
// Bucket-level replication

// BucketState is one token bucket's replicable level: quota dimension
// ("subscriber" or "collection"), key, stored tokens and the last-touch
// timestamp the refill math is relative to. Shipped in replication
// snapshots and heartbeats so a promoted standby enforces the quotas the
// primary had already charged, instead of granting every subscriber a
// fresh burst at failover.
type BucketState struct {
	Dimension string
	Key       string
	Tokens    float64
	Last      time.Time
}

// Dimension names for BucketState.
const (
	DimSubscriber = "subscriber"
	DimCollection = "collection"
)

// ExportBuckets snapshots every live bucket across both dimensions, sorted
// by (dimension, key) so exports are deterministic.
func (c *Controller) ExportBuckets() []BucketState {
	var out []BucketState
	out = c.subscribers.export(DimSubscriber, out)
	out = c.collections.export(DimCollection, out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dimension != out[j].Dimension {
			return out[i].Dimension < out[j].Dimension
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ApplyBuckets installs replicated bucket levels, overwriting any local
// state for the same keys. Buckets not mentioned are left alone — the
// stream is level-correcting, not a full sync, and an extra local bucket
// errs toward its own (fresher) admission history.
func (c *Controller) ApplyBuckets(states []BucketState) {
	for _, st := range states {
		switch st.Dimension {
		case DimSubscriber:
			c.subscribers.install(st.Key, st.Tokens, st.Last)
		case DimCollection:
			c.collections.install(st.Key, st.Tokens, st.Last)
		}
	}
}

// export appends one dimension's buckets to out.
func (s *bucketSet) export(dim string, out []BucketState) []BucketState {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, b := range sh.m {
			out = append(out, BucketState{Dimension: dim, Key: k, Tokens: b.tokens, Last: b.last})
		}
		sh.mu.Unlock()
	}
	return out
}

// install sets one bucket's level, creating it if absent.
func (s *bucketSet) install(key string, tokens float64, last time.Time) {
	sh := &s.shards[fnv32a(key)%bucketShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.m[key]
	if b == nil {
		b = &bucket{}
		sh.m[key] = b
	}
	b.tokens = tokens
	b.last = last
}
