// Package filter implements the local event-filtering engines of paper §5.
//
// Two engines share one interface: Naive scans every registered profile per
// event (the obvious baseline), while EqualityPreferred implements the
// variant of Fabret et al.'s equality-preferred matching the paper uses:
// profiles are normalised to DNF and every conjunction is hash-indexed by
// one of its positive equality predicates, so only conjunctions whose access
// (attribute, value) pair actually occurs in the event are evaluated.
// Conjunctions without an equality predicate fall back to a residual scan
// list. The benchmark suite (experiment E4) measures the gap.
//
// EqualityPreferred.Match allocates a constant number of objects per call,
// whatever the number of matches: the matcher reuses its scratch from call
// to call, and every Match's DocIDs is a capped sub-slice of one array per
// call.
package filter

import (
	"sort"
	"sync"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
)

// Match pairs a matched profile with the document IDs that triggered it
// (empty for event-level matches). DocIDs may share a backing array with
// the other Matches of the same call and is read-only; its capacity is
// capped, so an append copies instead of overwriting a neighbour.
type Match struct {
	Profile *profile.Profile
	DocIDs  []string
}

// Matcher is a local filtering engine.
type Matcher interface {
	// Add registers a profile. Adding an existing ID replaces it.
	Add(p *profile.Profile) error
	// Remove deletes a profile by ID, reporting whether it existed.
	Remove(id string) bool
	// Match returns the profiles matching ev, sorted by profile ID.
	Match(ev *event.Event) []Match
	// Get returns a registered profile by ID.
	Get(id string) (*profile.Profile, bool)
	// All returns every registered profile, sorted by ID (persistence and
	// introspection).
	All() []*profile.Profile
	// Len reports the number of registered profiles.
	Len() int
	// Stats reports cumulative evaluation counters.
	Stats() Stats
}

// Stats counts filtering work, the measurable difference between engines.
type Stats struct {
	// Events is the number of Match calls.
	Events int64
	// Evaluations counts full profile evaluations performed.
	Evaluations int64
	// Matches counts profiles returned.
	Matches int64
}

// Naive evaluates every profile against every event.
type Naive struct {
	mu       sync.RWMutex
	profiles map[string]*profile.Profile
	stats    Stats
}

// NewNaive builds an empty naive matcher.
func NewNaive() *Naive {
	return &Naive{profiles: make(map[string]*profile.Profile)}
}

var _ Matcher = (*Naive)(nil)

// Add registers p.
func (n *Naive) Add(p *profile.Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.profiles[p.ID] = p
	return nil
}

// Remove deletes a profile by ID.
func (n *Naive) Remove(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.profiles[id]
	delete(n.profiles, id)
	return ok
}

// Get returns a profile by ID.
func (n *Naive) Get(id string) (*profile.Profile, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	p, ok := n.profiles[id]
	return p, ok
}

// All returns every profile sorted by ID.
func (n *Naive) All() []*profile.Profile {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return sortedProfiles(n.profiles)
}

// Len reports the profile count.
func (n *Naive) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.profiles)
}

// Stats reports counters.
func (n *Naive) Stats() Stats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.stats
}

// Match scans all profiles.
func (n *Naive) Match(ev *event.Event) []Match {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Events++
	out := make([]Match, 0, 4)
	for _, p := range n.profiles {
		n.stats.Evaluations++
		if ok, ids := p.Matches(ev); ok {
			out = append(out, Match{Profile: p, DocIDs: ids})
		}
	}
	n.stats.Matches += int64(len(out))
	sortMatches(out)
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Profile.ID < ms[j].Profile.ID })
}

func sortedProfiles(m map[string]*profile.Profile) []*profile.Profile {
	out := make([]*profile.Profile, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
