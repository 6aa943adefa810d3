package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/profile"
)

// The interests ledger is the server's one record of what it has asked its
// directory node for, shared by the two selective routing modes: a
// multiset of routing keys with a count each, plus the key list of each
// profile ID. In multicast mode a key is a group name (groupsOf); in
// content mode it is one rendered conjunction of the profile's digest
// (profile.DigestOf). Broadcast mode keeps the ledger empty.
//
// Adding or removing a profile costs O(its keys). A join, a leave or an
// advertisement is sent only when the set of distinct keys changes, and
// under the ledger's lock, so concurrent churn cannot reorder them on the
// wire. Auxiliary profiles never enter the ledger: aux-matched events
// arrive point-to-point over the GS network, not through dissemination.

// DefaultContentWarmup is how long a server floods after entering content
// mode, giving advertisement traffic time to populate the routing tables
// of every directory node. Deterministic simulations (synchronous
// transport) configure zero.
const DefaultContentWarmup = 3 * time.Second

// interests is the ledger; the zero value is an empty broadcast ledger.
type interests struct {
	mu        sync.Mutex
	mode      RoutingMode         // the mode the keys are derived for
	keys      map[string]int      // routing key -> profiles behind it
	byProfile map[string][]string // profile ID -> its routing keys
	// advertised is the canonical digest last sent in content mode;
	// advertisedOnce is false until one was.
	advertised     string
	advertisedOnce bool
}

// put records p's keys for the ledger's mode under p's own ID, replacing
// any it held before, and returns the keys that entered or left the set of
// distinct keys. Re-adding a profile with unchanged keys changes nothing.
func (in *interests) put(p *profile.Profile) []string {
	var keys []string
	if in.mode == RouteMulticast {
		keys = groupsOf(p)
	} else {
		keys = profile.DigestOf(p.Expr).Strings()
	}
	old, had := in.byProfile[p.ID]
	if had && slices.Equal(old, keys) {
		return nil
	}
	in.byProfile[p.ID] = keys
	return in.count(old, -1, in.count(keys, 1, nil))
}

// count moves the count of every key by delta (+1 or -1) and appends to
// changed each key that entered or left the set of distinct keys.
func (in *interests) count(keys []string, delta int, changed []string) []string {
	for _, k := range keys {
		n := in.keys[k] + delta
		if n == 0 {
			delete(in.keys, k)
		} else {
			in.keys[k] = n
		}
		if n == 0 || n == 1 && delta > 0 {
			changed = append(changed, k)
		}
	}
	return changed
}

// addInterest records a user or composite profile in the ledger and sends
// what the change asks of the directory. Like every churn send it is best
// effort: a failed join or advertisement degrades precision until the next
// SetRoutingMode, never local state.
func (s *Service) addInterest(p *profile.Profile) {
	in := &s.interests
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.byProfile != nil {
		s.sendLocked(in.put(p))
	}
}

// removeInterest drops the keys recorded under a profile ID.
func (s *Service) removeInterest(id string) {
	in := &s.interests
	in.mu.Lock()
	defer in.mu.Unlock()
	if keys, ok := in.byProfile[id]; ok {
		delete(in.byProfile, id)
		s.sendLocked(in.count(keys, -1, nil))
	}
}

// sendLocked tells the directory that the distinct keys in changed entered
// or left the ledger: one join or leave each in multicast mode, one
// advertisement in content mode. Callers hold s.interests.mu.
func (s *Service) sendLocked(changed []string) {
	in, ctx := &s.interests, context.Background()
	if len(changed) > 0 && in.mode == RouteContent {
		_ = s.advertiseLocked(ctx)
		return
	}
	for _, g := range changed {
		if _, held := in.keys[g]; held {
			_ = s.gdsCli.JoinGroup(ctx, g)
		} else {
			_ = s.gdsCli.LeaveGroup(ctx, g)
		}
	}
}

// advertiseLocked normalises the distinct content keys, in sorted key
// order so the digest depends only on the current population, and sends
// the result unless it equals the digest last advertised.
func (s *Service) advertiseLocked(ctx context.Context) error {
	in := &s.interests
	d, err := profile.ParseDigest(missing(in.keys, nil))
	if err != nil {
		return err
	}
	canon := d.Canonical()
	if in.advertisedOnce && canon == in.advertised {
		return nil
	}
	if err := s.gdsCli.AdvertiseProfiles(ctx, d); err != nil {
		return fmt.Errorf("core: advertise profiles: %w", err)
	}
	in.advertised, in.advertisedOnce = canon, true
	s.stats.advertisementsSent.Inc()
	return nil
}

// rebuildInterests derives the ledger from scratch for the current mode —
// every user profile and every composite, each under its own ID — and
// sends the directory only the difference from what it was told before.
func (s *Service) rebuildInterests(ctx context.Context) error {
	in := &s.interests
	in.mu.Lock()
	defer in.mu.Unlock()
	prev, prevKeys := in.mode, in.keys
	in.keys, in.byProfile = nil, nil
	s.mu.Lock()
	in.mode = s.routing
	if in.mode != RouteBroadcast {
		in.keys, in.byProfile = make(map[string]int), make(map[string][]string)
		for _, p := range s.compositeProfiles {
			in.put(p)
		}
	}
	s.mu.Unlock()
	if in.byProfile != nil {
		for _, p := range s.matcher.All() {
			if p.CompositeOf == "" {
				in.put(p)
			}
		}
	}

	var oldGroups, newGroups map[string]int
	if prev == RouteMulticast {
		oldGroups = prevKeys
	}
	if in.mode == RouteMulticast {
		newGroups = in.keys
	}
	for _, g := range missing(oldGroups, newGroups) {
		_ = s.gdsCli.LeaveGroup(ctx, g) // best effort
	}
	var errs []error
	for _, g := range missing(newGroups, oldGroups) {
		if err := s.gdsCli.JoinGroup(ctx, g); err != nil {
			errs = append(errs, fmt.Errorf("core: join %s: %w", g, err))
		}
	}
	if prev == RouteContent && in.mode != RouteContent {
		in.advertised, in.advertisedOnce = "", false
		_ = s.gdsCli.UnadvertiseProfiles(ctx) // best effort
	}
	if in.mode == RouteContent {
		errs = append(errs, s.advertiseLocked(ctx))
	}
	return errors.Join(errs...)
}

// missing returns, sorted, the keys of a that b lacks.
func missing(a, b map[string]int) []string {
	var out []string
	for k := range a {
		if _, ok := b[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
