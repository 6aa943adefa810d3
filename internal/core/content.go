package core

import (
	"context"
	"fmt"
	"time"

	"github.com/gsalert/gsalert/internal/profile"
)

// Content-based dissemination (RouteContent): instead of joining one
// multicast group per covered collection, the server advertises a single
// digest summarising its whole profile population and lets the directory
// route events by their attributes. Profile churn re-advertises only when
// the normalised digest actually changes — subscribing to something the
// current digest already covers is free.

// DefaultContentWarmup is how long a server floods after entering content
// mode, giving advertisement traffic time to populate the routing tables
// of every directory node. Deterministic simulations (synchronous
// transport) configure zero.
const DefaultContentWarmup = 3 * time.Second

// localDigestLocked computes the digest of the current user-profile
// population, reusing the cached merge when only additions happened since
// it was built (subscribing is the hot path; a full recomputation per
// subscribe would scan the whole population every time). Auxiliary
// profiles are excluded on purpose: aux-matched events arrive
// point-to-point over the GS network, not through GDS dissemination.
// Callers hold s.advMu.
func (s *Service) localDigestLocked(added *profile.Profile) profile.Digest {
	if s.digestCacheOK && added != nil {
		s.digestCache = profile.MergeDigests(s.digestCache, profile.DigestOf(added.Expr))
		return s.digestCache
	}
	all := s.matcher.All()
	parts := make([]profile.Digest, 0, len(all))
	for _, p := range all {
		parts = append(parts, profile.DigestOf(p.Expr))
	}
	s.digestCache = profile.MergeDigests(parts...)
	s.digestCacheOK = true
	return s.digestCache
}

// advertiseProfiles sends the current digest to the GDS node if it differs
// from what was last advertised (the client-side covering prune). added,
// when non-nil, is a profile just registered — an incremental widening
// that can reuse the cached digest. The whole compute-compare-send
// sequence is serialised by s.advMu so concurrent churn cannot send a
// stale (narrower) digest after a fresh one and leave the directory
// permanently missing an interest.
func (s *Service) advertiseProfiles(ctx context.Context, added *profile.Profile) error {
	if s.gdsCli == nil {
		return nil
	}
	s.advMu.Lock()
	defer s.advMu.Unlock()
	d := s.localDigestLocked(added)
	canon := d.Canonical()
	s.mu.Lock()
	skip := s.advertisedOnce && canon == s.advertised
	s.mu.Unlock()
	if skip {
		return nil
	}
	if err := s.gdsCli.AdvertiseProfiles(ctx, d); err != nil {
		return fmt.Errorf("core: advertise profiles: %w", err)
	}
	s.mu.Lock()
	s.advertised = canon
	s.advertisedOnce = true
	s.mu.Unlock()
	s.stats.advertisementsSent.Inc()
	return nil
}

// readvertiseOnChurn refreshes the advertisement after a profile was added
// (non-nil added) or removed while in content mode. Best effort, like
// multicast's group joins: a failed advertisement degrades precision (the
// directory keeps the previous digest) but never correctness beyond it.
func (s *Service) readvertiseOnChurn(added *profile.Profile) {
	s.mu.Lock()
	content := s.routing == RouteContent
	s.mu.Unlock()
	if !content {
		return
	}
	if added == nil {
		// A removal may narrow the digest: rebuild the cache from the
		// surviving population.
		s.advMu.Lock()
		s.digestCacheOK = false
		s.advMu.Unlock()
	}
	_ = s.advertiseProfiles(context.Background(), added)
}
