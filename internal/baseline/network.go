// Package baseline implements the distributed routing strategies the paper's
// related-work section (§2) argues against, plus the paper's hybrid design,
// all over one abstract network model, so experiment E3 can compare their
// correctness (false positives/negatives) and message cost on the same
// fragmented, dynamic topologies.
//
// The model deliberately simplifies profiles to "interest in one qualified
// collection" — the dimension that matters for routing correctness; content
// filtering fidelity is measured separately (E4) on the full engines.
package baseline

import (
	"fmt"
	"sort"
)

// Network is the abstract topology: Greenstone servers joined by
// sub-collection reference links (the GS network), plus a GDS tree as the
// auxiliary maintenance network. Links and servers can fail dynamically.
type Network struct {
	servers map[string]bool
	// adj is the undirected GS-link adjacency.
	adj map[string]map[string]bool
	// down marks crashed/disconnected servers.
	down map[string]bool
	// cut marks severed GS links.
	cut map[[2]string]bool
	// gdsNodes is the size of the directory tree, for message accounting.
	gdsNodes int
}

// NewNetwork builds a network over the given servers with a GDS tree of
// gdsNodes directory nodes.
func NewNetwork(servers []string, gdsNodes int) *Network {
	n := &Network{
		servers:  make(map[string]bool, len(servers)),
		adj:      make(map[string]map[string]bool),
		down:     make(map[string]bool),
		cut:      make(map[[2]string]bool),
		gdsNodes: maxInt(gdsNodes, 1),
	}
	for _, s := range servers {
		n.servers[s] = true
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// AddLink joins two servers with a GS link (a sub-collection reference).
func (n *Network) AddLink(a, b string) {
	if a == b || !n.servers[a] || !n.servers[b] {
		return
	}
	if n.adj[a] == nil {
		n.adj[a] = make(map[string]bool)
	}
	if n.adj[b] == nil {
		n.adj[b] = make(map[string]bool)
	}
	n.adj[a][b] = true
	n.adj[b][a] = true
}

// CutLink severs a GS link.
func (n *Network) CutLink(a, b string) { n.cut[linkKey(a, b)] = true }

// HealLink restores a GS link.
func (n *Network) HealLink(a, b string) { delete(n.cut, linkKey(a, b)) }

// Servers lists server names, sorted.
func (n *Network) Servers() []string {
	out := make([]string, 0, len(n.servers))
	for s := range n.servers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Up reports whether a server is alive.
func (n *Network) Up(s string) bool { return n.servers[s] && !n.down[s] }

// GDSReachable reports whether a server can currently use the directory:
// the paper's design assumption is that the auxiliary network is more stable
// than GS links, so only the server itself failing cuts it off.
func (n *Network) GDSReachable(s string) bool { return n.Up(s) }

// LinkUp reports whether the GS link a<->b is usable right now.
func (n *Network) LinkUp(a, b string) bool {
	return n.Up(a) && n.Up(b) && n.adj[a][b] && !n.cut[linkKey(a, b)]
}

// Neighbors lists the currently usable GS neighbours of s, sorted.
func (n *Network) Neighbors(s string) []string {
	var out []string
	for peer := range n.adj[s] {
		if n.LinkUp(s, peer) {
			out = append(out, peer)
		}
	}
	sort.Strings(out)
	return out
}

// FloodFrom performs a BFS over usable GS links from origin, returning the
// set of reached servers (including origin) and the number of link
// crossings a flooding protocol would perform (each edge of the BFS
// frontier is crossed once per direction attempt; we count one message per
// discovered-or-duplicate delivery, the standard flooding cost).
func (n *Network) FloodFrom(origin string) (reached map[string]bool, messages int) {
	reached = make(map[string]bool)
	if !n.Up(origin) {
		return reached, 0
	}
	reached[origin] = true
	queue := []string{origin}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, peer := range n.Neighbors(cur) {
			messages++ // every neighbour gets a copy, duplicate or not
			if !reached[peer] {
				reached[peer] = true
				queue = append(queue, peer)
			}
		}
	}
	return reached, messages
}

// PathLen returns the BFS hop distance between two servers over usable GS
// links, or -1 when unreachable.
func (n *Network) PathLen(from, to string) int {
	if !n.Up(from) || !n.Up(to) {
		return -1
	}
	if from == to {
		return 0
	}
	dist := map[string]int{from: 0}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, peer := range n.Neighbors(cur) {
			if _, seen := dist[peer]; seen {
				continue
			}
			dist[peer] = dist[cur] + 1
			if peer == to {
				return dist[peer]
			}
			queue = append(queue, peer)
		}
	}
	return -1
}

// GDSBroadcastCost estimates the message count of one directory-tree flood:
// every tree edge is crossed once plus one delivery per reachable server.
func (n *Network) GDSBroadcastCost(reachedServers int) int {
	return (n.gdsNodes - 1) + reachedServers
}

// GDSReachableServers lists servers currently reachable through the
// directory network.
func (n *Network) GDSReachableServers() []string {
	var out []string
	for s := range n.servers {
		if n.GDSReachable(s) {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// String summarises the network.
func (n *Network) String() string {
	links := 0
	for _, peers := range n.adj {
		links += len(peers)
	}
	return fmt.Sprintf("network{servers: %d, gs-links: %d, gds-nodes: %d, cuts: %d, down: %d}",
		len(n.servers), links/2, n.gdsNodes, len(n.cut), len(n.down))
}
