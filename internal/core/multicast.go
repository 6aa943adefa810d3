package core

import (
	"context"
	"fmt"
	"strings"

	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/profile"
)

// RoutingMode selects how events are disseminated through the GDS.
type RoutingMode int

// Routing modes.
const (
	// RouteBroadcast floods every event to every server (the paper's
	// primary design, §4.2).
	RouteBroadcast RoutingMode = iota + 1
	// RouteMulticast scopes dissemination to collection-interest groups:
	// each server joins the multicast group of every collection its
	// profiles cover, and publishers multicast instead of broadcasting.
	// Profiles without a finite collection cover put their server into the
	// catch-all group, which every publisher also addresses — so the mode
	// is an optimisation, never a correctness change (paper §6 names
	// multicast as a GDS capability; this is the ablation for it).
	RouteMulticast
	// RouteContent routes by profile content: the server advertises a
	// digest of its profile population (profile.Digest) to its GDS node,
	// directory nodes aggregate digests per tree link with covering-based
	// pruning, and published events descend only into subtrees whose digest
	// matches the event's attributes. Strictly finer-grained than
	// RouteMulticast (it can prune on event type, host or any event-level
	// predicate, not just the collection) at the cost of digest state in
	// the directory. See docs/ROUTING.md.
	RouteContent
)

// String names the mode as accepted by ParseRoutingMode.
func (m RoutingMode) String() string {
	switch m {
	case RouteBroadcast:
		return "broadcast"
	case RouteMulticast:
		return "multicast"
	case RouteContent:
		return "content"
	default:
		return fmt.Sprintf("mode-%d", int(m))
	}
}

// ParseRoutingMode inverts RoutingMode.String (the gs-server -routing
// flag).
func ParseRoutingMode(s string) (RoutingMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "broadcast", "flood":
		return RouteBroadcast, nil
	case "multicast":
		return RouteMulticast, nil
	case "content":
		return RouteContent, nil
	default:
		return 0, fmt.Errorf("core: unknown routing mode %q (want broadcast, multicast or content)", s)
	}
}

// catchAllGroup receives every event: members host profiles whose
// collection scope cannot be bounded.
const catchAllGroup = "gsalert.any"

// collGroup names the multicast group of one collection.
func collGroup(qualified string) string {
	return "coll:" + strings.ToLower(qualified)
}

// SetRoutingMode switches dissemination modes and tears the previous
// mode's directory state down eagerly: leaving multicast leaves every
// joined group (stale memberships would otherwise keep attracting
// traffic), leaving content routing withdraws the advertised digest.
// Switching to multicast (re)announces group memberships for every
// registered profile; switching to content routing advertises the current
// profile digest and floods for the configured warm-up window.
func (s *Service) SetRoutingMode(ctx context.Context, mode RoutingMode) error {
	if mode != RouteBroadcast && mode != RouteMulticast && mode != RouteContent {
		return fmt.Errorf("core: unknown routing mode %d", mode)
	}
	s.mu.Lock()
	prev := s.routing
	if prev == 0 {
		prev = RouteBroadcast
	}
	s.routing = mode
	if mode == RouteContent {
		s.contentFloodUntil = s.clock().Add(s.contentWarmup)
	}
	s.mu.Unlock()
	s.log.Info("routing mode changed",
		logging.String("from", prev.String()), logging.String("to", mode.String()))
	if s.gdsCli == nil {
		return nil
	}
	if prev == RouteMulticast && mode != RouteMulticast {
		s.leaveAllGroups(ctx)
	}
	if prev == RouteContent && mode != RouteContent {
		s.mu.Lock()
		s.advertised = ""
		s.advertisedOnce = false
		s.mu.Unlock()
		_ = s.gdsCli.UnadvertiseProfiles(ctx) // best effort
	}
	switch mode {
	case RouteMulticast:
		// Join groups for the current profile population.
		for _, p := range s.matcher.All() {
			if err := s.joinGroupsFor(ctx, p); err != nil {
				return err
			}
		}
	case RouteContent:
		return s.advertiseProfiles(ctx, nil)
	}
	return nil
}

// leaveAllGroups eagerly leaves every multicast group this server joined,
// clearing the per-profile bookkeeping.
func (s *Service) leaveAllGroups(ctx context.Context) {
	s.mu.Lock()
	var leave []string
	for g := range s.groupRefs {
		leave = append(leave, g)
	}
	s.groupRefs = nil
	s.groupsByProfile = nil
	s.mu.Unlock()
	sortStrings(leave)
	for _, g := range leave {
		_ = s.gdsCli.LeaveGroup(ctx, g) // best effort
	}
}

// RoutingMode reports the current mode.
func (s *Service) RoutingMode() RoutingMode {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.routing == 0 {
		return RouteBroadcast
	}
	return s.routing
}

// joinGroupsFor subscribes this server to the groups covering p, with
// reference counting so unsubscribes can leave groups precisely.
func (s *Service) joinGroupsFor(ctx context.Context, p *profile.Profile) error {
	if s.gdsCli == nil {
		return nil
	}
	groups := s.groupsOf(p)
	for _, g := range groups {
		s.mu.Lock()
		if s.groupRefs == nil {
			s.groupRefs = make(map[string]int)
		}
		s.groupRefs[g]++
		first := s.groupRefs[g] == 1
		s.mu.Unlock()
		if first {
			if err := s.gdsCli.JoinGroup(ctx, g); err != nil {
				return fmt.Errorf("core: join %s: %w", g, err)
			}
		}
	}
	s.mu.Lock()
	if s.groupsByProfile == nil {
		s.groupsByProfile = make(map[string][]string)
	}
	s.groupsByProfile[p.ID] = groups
	s.mu.Unlock()
	return nil
}

// leaveGroupsFor drops group memberships owned by a removed profile.
func (s *Service) leaveGroupsFor(ctx context.Context, profileID string) {
	if s.gdsCli == nil {
		return
	}
	s.mu.Lock()
	groups := s.groupsByProfile[profileID]
	delete(s.groupsByProfile, profileID)
	var leave []string
	for _, g := range groups {
		s.groupRefs[g]--
		if s.groupRefs[g] <= 0 {
			delete(s.groupRefs, g)
			leave = append(leave, g)
		}
	}
	s.mu.Unlock()
	for _, g := range leave {
		_ = s.gdsCli.LeaveGroup(ctx, g) // best effort
	}
}

// groupsOf computes the multicast groups covering a profile.
func (s *Service) groupsOf(p *profile.Profile) []string {
	cover, bounded := profile.CollectionCover(p.Expr)
	if !bounded {
		return []string{catchAllGroup}
	}
	groups := make([]string, 0, len(cover))
	for _, c := range cover {
		groups = append(groups, collGroup(c))
	}
	return groups
}
