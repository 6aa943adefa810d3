package gds

import (
	"context"
	"sort"

	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// Content-based routing (the third dissemination mode, extending the
// paper's §6 multicast with SIENA-style subscription covering).
//
// Every tree link — a directly registered server or a child directory
// node — may advertise a profile digest (profile.Digest): a DNF over
// event-level attributes summarising every profile reachable over that
// link. The node keeps one digest per link, merges them (with the
// covering prune) into a subtree aggregate, and advertises that aggregate
// to its own parent whenever it changes. Content-routed events then climb
// to the root unconditionally and descend only into links whose digest
// matches the event's attributes.
//
// A link that has never advertised is "unwarm" and treated as match-all:
// servers that do not speak content routing, and tables still being
// populated, degrade to flooding rather than losing events. An unwarm
// link also forces the node's upward aggregate to match-all, so the
// fallback is transitive up the tree.

// linkDigestLocked returns the digest advertised over a link, with the
// match-all default for unwarm links. Callers hold n.mu.
func (n *Node) linkDigestLocked(link string) profile.Digest {
	if d, ok := n.digests[link]; ok {
		return d
	}
	return profile.TopDigest()
}

// aggregateDigestLocked merges every link digest into the subtree
// summary. Any unwarm link widens the aggregate to match-all. Callers
// hold n.mu.
func (n *Node) aggregateDigestLocked() profile.Digest {
	parts := make([]profile.Digest, 0, len(n.servers)+len(n.children))
	for name := range n.servers {
		d, ok := n.digests[name]
		if !ok {
			return profile.TopDigest()
		}
		parts = append(parts, d)
	}
	for child := range n.children {
		d, ok := n.digests[child]
		if !ok {
			return profile.TopDigest()
		}
		parts = append(parts, d)
	}
	return profile.MergeDigests(parts...)
}

func (n *Node) handleAdvertiseProfiles(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var ap protocol.AdvertiseProfiles
	if err := protocol.Decode(env, protocol.MsgAdvertiseProfiles, &ap); err != nil {
		return protocol.Errorf(n.id, "decode", "%v", err), nil
	}
	if ap.Name == "" {
		return protocol.Errorf(n.id, "advertise", "name required"), nil
	}
	digest, err := profile.ParseDigest(ap.Digest)
	if err != nil {
		return protocol.Errorf(n.id, "advertise", "bad digest: %v", err), nil
	}
	n.mu.Lock()
	n.digests[ap.Name] = digest
	n.mu.Unlock()
	n.propagateDigest(ctx)
	return protocol.Ack(n.id, env), nil
}

func (n *Node) handleUnadvertiseProfiles(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var up protocol.UnadvertiseProfiles
	if err := protocol.Decode(env, protocol.MsgUnadvertiseProfiles, &up); err != nil {
		return protocol.Errorf(n.id, "decode", "%v", err), nil
	}
	n.mu.Lock()
	_, existed := n.digests[up.Name]
	delete(n.digests, up.Name)
	n.mu.Unlock()
	if existed {
		n.propagateDigest(ctx)
	}
	return protocol.Ack(n.id, env), nil
}

// propagateDigest recomputes the subtree aggregate and re-advertises it to
// the parent when it changed since the last advertisement — the covering
// prune for advertisement traffic: a new profile covered by the already
// advertised aggregate leaves the (normalised) aggregate unchanged and
// travels no further up the tree.
//
// The compute-compare-send sequence runs under n.advMu so concurrent
// handlers cannot reorder advertisements on the wire: without it a stale
// (narrower) aggregate could be sent after a fresh one and win at the
// parent, which would then prune a subtree that does hold the interest.
func (n *Node) propagateDigest(ctx context.Context) {
	n.advMu.Lock()
	defer n.advMu.Unlock()
	n.mu.Lock()
	parentAddr := n.parentAddr
	if parentAddr == "" {
		n.mu.Unlock()
		return
	}
	agg := n.aggregateDigestLocked()
	canon := agg.Canonical()
	if n.advertisedUp && canon == n.advertised {
		n.mu.Unlock()
		return
	}
	n.advertised = canon
	n.advertisedUp = true
	n.mu.Unlock()
	env, err := protocol.NewEnvelope(n.id, protocol.MsgAdvertiseProfiles, &protocol.AdvertiseProfiles{
		Name:   n.id,
		Digest: agg.Strings(),
	})
	if err != nil {
		return
	}
	_ = transport.SendOneWay(ctx, n.tr, parentAddr, env) // best effort
}

// handleRouteContent disseminates the wrapped envelope content-based:
// deliver to directly registered servers whose digest matches, climb
// towards the root, and descend only into child subtrees whose digest
// matches (paper §6's multicast descent, with digests instead of group
// membership). Flooded (fallback) messages take the broadcast paths.
func (n *Node) handleRouteContent(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var rc protocol.RouteContent
	return n.hop(ctx, env, &rc, func() hopMode {
		if rc.Flood {
			return hopMode{
				inner: rc.Inner,
				span:  "content-flood",
				count: func() {
					n.m.ContentFlooded.Inc()
					n.log.Debug("content envelope took flood fallback",
						logging.String("from", env.Header.From))
				},
				links: func(from string) ([]string, []string) { return n.treeLinksLocked(from, nil) },
			}
		}
		attrs := rc.AttrMap()
		return hopMode{
			inner: rc.Inner,
			span:  "content",
			count: n.m.ContentRouted.Inc,
			links: func(from string) ([]string, []string) {
				return n.treeLinksLocked(from, func(link string) bool {
					return n.linkDigestLocked(link).Matches(attrs)
				})
			},
		}
	})
}

// ---------------------------------------------------------------------------
// Client side

// AdvertiseProfiles installs (or replaces) this server's profile digest at
// its directory node. An empty digest is the explicit "no interests":
// content-routed events stop descending to this server until a wider
// digest is advertised.
func (c *Client) AdvertiseProfiles(ctx context.Context, d profile.Digest) error {
	return c.send(ctx, protocol.MsgAdvertiseProfiles, &protocol.AdvertiseProfiles{Name: c.serverName, Digest: d.Strings()})
}

// UnadvertiseProfiles withdraws the server's digest; the directory treats
// the server as match-all again (the safe default for servers that leave
// content-routing mode).
func (c *Client) UnadvertiseProfiles(ctx context.Context) error {
	return c.send(ctx, protocol.MsgUnadvertiseProfiles, &protocol.UnadvertiseProfiles{Name: c.serverName})
}

// RouteContent disseminates inner to every server whose advertised digest
// matches attrs. With flood set the message takes the broadcast paths
// instead — the warm-up fallback for publishers that cannot yet rely on
// the routing tables.
func (c *Client) RouteContent(ctx context.Context, attrs map[string]string, inner *protocol.Envelope, flood bool) error {
	rc := protocol.RouteContent{Flood: flood, Attrs: make([]protocol.EventAttr, 0, len(attrs))}
	for _, name := range sortedKeys(attrs) {
		rc.Attrs = append(rc.Attrs, protocol.EventAttr{Name: name, Value: attrs[name]})
	}
	return c.disseminate(ctx, protocol.MsgRouteContent, inner, &rc, &rc.Inner)
}

// sortedKeys returns the map keys in sorted order so wire forms are
// deterministic.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
