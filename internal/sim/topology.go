package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/gsalert/gsalert/internal/baseline"
)

// TopologyConfig shapes a generated Greenstone network for the routing
// comparison (experiment E3).
type TopologyConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Servers is the number of Greenstone servers.
	Servers int
	// SolitaryFraction is the fraction of servers with no GS links at all —
	// the paper's observation that "most servers are solitary
	// installations" (§1 problem 1).
	SolitaryFraction float64
	// ExtraLinkFraction adds cycles: extra random links as a fraction of
	// the connected-server count (paper §1 problem 2).
	ExtraLinkFraction float64
	// Islands splits the connected servers into this many disjoint
	// components (>=1).
	Islands int
	// GDSNodes sizes the directory tree used for cost accounting.
	GDSNodes int
}

// Topology is a generated network plus bookkeeping for workloads.
type Topology struct {
	Net      *baseline.Network
	Servers  []string
	Solitary []string
	// Linked are the servers that participate in the GS graph.
	Linked []string
	rng    *rand.Rand
}

// GenerateTopology builds a fragmented, possibly cyclic GS network.
func GenerateTopology(cfg TopologyConfig) *Topology {
	if cfg.Servers < 1 {
		cfg.Servers = 1
	}
	if cfg.Islands < 1 {
		cfg.Islands = 1
	}
	if cfg.GDSNodes < 1 {
		cfg.GDSNodes = 1 + cfg.Servers/8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	servers := make([]string, 0, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		servers = append(servers, fmt.Sprintf("S%03d", i))
	}
	net := baseline.NewNetwork(servers, cfg.GDSNodes)

	nSolitary := int(cfg.SolitaryFraction * float64(cfg.Servers))
	if nSolitary > cfg.Servers {
		nSolitary = cfg.Servers
	}
	perm := rng.Perm(cfg.Servers)
	solitary := make([]string, 0, nSolitary)
	linked := make([]string, 0, cfg.Servers-nSolitary)
	for i, idx := range perm {
		if i < nSolitary {
			solitary = append(solitary, servers[idx])
		} else {
			linked = append(linked, servers[idx])
		}
	}

	// Partition linked servers into islands, each internally a random tree.
	islands := cfg.Islands
	if islands > len(linked) {
		islands = max(1, len(linked))
	}
	for i := range linked {
		island := i % islands
		// Attach to a random earlier member of the same island.
		for j := i - islands; j >= 0; j -= islands {
			if (j % islands) == island {
				// pick any earlier same-island node at random
				candidates := make([]int, 0, 4)
				for k := island; k < i; k += islands {
					candidates = append(candidates, k)
				}
				if len(candidates) > 0 {
					net.AddLink(linked[i], linked[candidates[rng.Intn(len(candidates))]])
				}
				break
			}
		}
	}
	// Extra links within islands create cycles.
	extra := int(cfg.ExtraLinkFraction * float64(len(linked)))
	for e := 0; e < extra && len(linked) > 2; e++ {
		a := rng.Intn(len(linked))
		b := rng.Intn(len(linked))
		if a == b || (a%islands) != (b%islands) {
			continue
		}
		net.AddLink(linked[a], linked[b])
	}

	slices.Sort(solitary)
	slices.Sort(linked)
	return &Topology{Net: net, Servers: servers, Solitary: solitary, Linked: linked, rng: rng}
}

// WorkloadConfig shapes the subscription/event workload for E3.
type WorkloadConfig struct {
	// Collections is the number of distinct collections, assigned to random
	// owners.
	Collections int
	// Subscriptions is the number of user profiles, at random home servers,
	// each interested in one random collection.
	Subscriptions int
	// EventsPerCollection is how many events each collection's owner
	// publishes per phase.
	EventsPerCollection int
}

// Workload is a generated subscription and event load.
type Workload struct {
	Collections []WorkloadCollection
	Subs        []baseline.Subscription
}

// WorkloadCollection is one collection with its owning server.
type WorkloadCollection struct {
	Name  string // qualified "Owner.CX"
	Owner string
}

// GenerateWorkload builds the workload over a topology.
func (t *Topology) GenerateWorkload(cfg WorkloadConfig) *Workload {
	if cfg.Collections < 1 {
		cfg.Collections = 1
	}
	w := &Workload{}
	for i := 0; i < cfg.Collections; i++ {
		owner := t.Servers[t.rng.Intn(len(t.Servers))]
		w.Collections = append(w.Collections, WorkloadCollection{
			Name:  fmt.Sprintf("%s.C%d", owner, i),
			Owner: owner,
		})
	}
	for i := 0; i < cfg.Subscriptions; i++ {
		home := t.Servers[t.rng.Intn(len(t.Servers))]
		coll := w.Collections[t.rng.Intn(len(w.Collections))]
		w.Subs = append(w.Subs, baseline.Subscription{
			ID:         fmt.Sprintf("sub%04d", i),
			Server:     home,
			Collection: coll.Name,
		})
	}
	return w
}

// RandomLinkedPair picks two distinct linked servers (for link cuts); ok is
// false when fewer than two linked servers exist.
func (t *Topology) RandomLinkedPair() (a, b string, ok bool) {
	if len(t.Linked) < 2 {
		return "", "", false
	}
	i := t.rng.Intn(len(t.Linked))
	j := t.rng.Intn(len(t.Linked) - 1)
	if j >= i {
		j++
	}
	return t.Linked[i], t.Linked[j], true
}
