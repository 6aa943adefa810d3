// Package gds implements the Greenstone Directory Service of paper §4.1/§6:
// a tree of auxiliary directory nodes organised in strata (stratum 1 is the
// primary). Greenstone servers register with exactly one GDS node. The GDS
// provides:
//
//   - a DNS-like naming service: server names resolve to transport
//     addresses, with registrations propagated towards the root so any node
//     can answer for its whole subtree and delegate upwards otherwise;
//   - anonymous best-effort broadcast: a message handed to any node is
//     flooded "upwards within the tree and downwards to all tree leaves",
//     reaching every registered server, with bounded-memory deduplication
//     guarding against duplicates;
//   - multicast groups: joins propagate towards the root like names and
//     multicasts descend only into subtrees that contain members.
package gds

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// member records one group member and which child subtree (if any) it was
// learned from.
type member struct {
	addr     string
	viaChild string // child node ID, or "" when registered directly here
}

// Node is one GDS installation.
type Node struct {
	id      string
	addr    string
	stratum int
	tr      transport.Transport
	// log is the node's component logger (SetLog); nil no-ops every site.
	log *logging.Logger

	mu         sync.Mutex
	parentID   string
	parentAddr string
	children   map[string]string // child node ID -> addr
	// servers are Greenstone servers registered directly at this node.
	servers map[string]string // server name -> addr
	// subtree is the name table for everything below (and at) this node.
	subtree map[string]string
	// groups maps group name -> member name -> member record.
	groups map[string]map[string]member
	// digests maps a tree link (direct server name or child node ID) to the
	// profile digest advertised over it; absent links are unwarm and treated
	// as match-all (content routing).
	digests map[string]profile.Digest
	// advertised is the canonical aggregate digest last sent to the parent;
	// advertisedUp records whether anything was sent at all. advMu
	// serialises aggregate compute+send (see propagateDigest).
	advMu        sync.Mutex
	advertised   string
	advertisedUp bool

	dedup    *event.Dedup
	listener io.Closer

	// tracer records one route-hop span per traced dissemination envelope
	// relayed through this node; nil disables hop recording (traced
	// envelopes still pass through unchanged).
	tracer *trace.Tracer

	m Metrics
}

// SetTracer installs (or, with nil, removes) the node's span recorder. Call
// it before traffic flows; the dissemination handlers read it unlocked.
func (n *Node) SetTracer(t *trace.Tracer) { n.tracer = t }

// hopSpan records this node's processing of one traced dissemination
// envelope as a StageRouteHop span covering receive-to-relay (dedup, decode,
// target selection) and returns the re-stamp wire context: deliveries and
// relays carry the hop span as their new parent so a trace's span tree
// mirrors the dissemination tree hop by hop. Untraced envelopes (or a node
// without a tracer) return "" and nothing is recorded. The span closes
// before the sends on purpose: on the synchronous in-memory transport the
// downstream stages run inside the send, and counting them here would
// double-attribute their time.
func (n *Node) hopSpan(env *protocol.Envelope, start time.Time, mode string) string {
	if n.tracer == nil || env.Header.Trace == "" {
		return ""
	}
	parent, ok := trace.Parse(env.Header.Trace)
	if !ok || !parent.Sampled() {
		return ""
	}
	ctx := n.tracer.Record(parent, trace.StageRouteHop, start, time.Since(start), "",
		trace.Attr{Key: "mode", Value: mode},
		trace.Attr{Key: "hops", Value: strconv.Itoa(env.Header.Hops)})
	return ctx.String()
}

// Metrics are the node's dissemination counters, lock-free so the handlers'
// hot paths never serialise on a stats mutex and an observability scrape
// can read them live (internal/obs registers them on gds-server's
// /metrics endpoint).
type Metrics struct {
	// Deliveries counts inner envelopes handed to registered servers.
	Deliveries metrics.Counter
	// Broadcasts counts flood envelopes relayed through this node
	// (post-dedup).
	Broadcasts metrics.Counter
	// Multicasts counts group-multicast envelopes relayed (post-dedup).
	Multicasts metrics.Counter
	// ContentRouted counts digest-pruned content-routing envelopes relayed
	// (post-dedup, Flood unset).
	ContentRouted metrics.Counter
	// ContentFlooded counts content envelopes that took the flood fallback
	// (Flood set: warm-up or unwarm tables).
	ContentFlooded metrics.Counter
	// Resolves counts name-resolution requests served here.
	Resolves metrics.Counter
	// ResolvesDelegated counts resolutions escalated to the parent (subset
	// of Resolves).
	ResolvesDelegated metrics.Counter
}

// Metrics exposes the node's live counters.
func (n *Node) Metrics() *Metrics { return &n.m }

// NewNode creates a GDS node listening on addr at the given stratum.
func NewNode(id, addr string, stratum int, tr transport.Transport) (*Node, error) {
	if id == "" || addr == "" {
		return nil, fmt.Errorf("gds: node needs id and addr")
	}
	if stratum < 1 {
		return nil, fmt.Errorf("gds: stratum must be >= 1, got %d", stratum)
	}
	n := &Node{
		id:       id,
		addr:     addr,
		stratum:  stratum,
		tr:       tr,
		children: make(map[string]string),
		servers:  make(map[string]string),
		subtree:  make(map[string]string),
		groups:   make(map[string]map[string]member),
		digests:  make(map[string]profile.Digest),
		dedup:    event.NewDedup(0),
	}
	l, err := tr.Listen(addr, transport.HandlerFunc(n.handle))
	if err != nil {
		return nil, fmt.Errorf("gds: node %s listen: %w", id, err)
	}
	n.listener = l
	return n, nil
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.addr }

// SetLog installs the node's structured logger (docs/LOGGING.md): server
// registrations at info, content-routing flood fallbacks at debug. Call it
// right after NewNode, before traffic; a nil logger (the default) disables
// every site at one pointer check.
func (n *Node) SetLog(lg *logging.Logger) { n.log = lg }

// Close detaches the node from the transport.
func (n *Node) Close() error {
	n.mu.Lock()
	l := n.listener
	n.listener = nil
	n.mu.Unlock()
	if l != nil {
		return l.Close()
	}
	return nil
}

// AttachToParent registers this node as a child of the GDS node at
// parentAddr and re-propagates the local subtree's names upward.
func (n *Node) AttachToParent(ctx context.Context, parentID, parentAddr string) error {
	env, err := protocol.NewEnvelope(n.id, protocol.MsgRegisterChild, &protocol.RegisterChild{
		NodeID:  n.id,
		Addr:    n.addr,
		Stratum: n.stratum,
	})
	if err != nil {
		return err
	}
	if err := transport.SendOneWay(ctx, n.tr, parentAddr, env); err != nil {
		return fmt.Errorf("gds: attach %s to %s: %w", n.id, parentID, err)
	}
	n.mu.Lock()
	n.parentID = parentID
	n.parentAddr = parentAddr
	names := make(map[string]string, len(n.subtree))
	for name, addr := range n.subtree {
		names[name] = addr
	}
	groups := make(map[string]map[string]member, len(n.groups))
	for g, ms := range n.groups {
		cp := make(map[string]member, len(ms))
		for name, m := range ms {
			cp[name] = m
		}
		groups[g] = cp
	}
	n.mu.Unlock()

	// Re-propagate names and groups so the new ancestors learn them.
	for name, addr := range names {
		if err := n.sendUp(ctx, protocol.MsgRegisterServer, &protocol.RegisterServer{Name: name, Addr: addr}); err != nil {
			return err
		}
	}
	for g, ms := range groups {
		for name, m := range ms {
			if err := n.sendUp(ctx, protocol.MsgJoinGroup, &protocol.JoinGroup{Group: g, Name: name, Addr: m.addr}); err != nil {
				return err
			}
		}
	}
	// The new ancestors have no digest for this subtree yet; force a fresh
	// aggregate advertisement.
	n.mu.Lock()
	n.advertisedUp = false
	n.mu.Unlock()
	n.propagateDigest(ctx)
	return nil
}

// handle dispatches incoming protocol messages.
func (n *Node) handle(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	switch env.Header.Type {
	case protocol.MsgRegisterChild:
		return n.handleRegisterChild(env)
	case protocol.MsgRegisterServer:
		return n.handleRegisterServer(ctx, env)
	case protocol.MsgUnregisterServer:
		return n.handleUnregisterServer(ctx, env)
	case protocol.MsgResolve:
		return n.handleResolve(ctx, env)
	case protocol.MsgBroadcast:
		return n.handleBroadcast(ctx, env)
	case protocol.MsgMulticast:
		return n.handleMulticast(ctx, env)
	case protocol.MsgJoinGroup:
		return n.handleJoinGroup(ctx, env)
	case protocol.MsgLeaveGroup:
		return n.handleLeaveGroup(ctx, env)
	case protocol.MsgAdvertiseProfiles:
		return n.handleAdvertiseProfiles(ctx, env)
	case protocol.MsgUnadvertiseProfiles:
		return n.handleUnadvertiseProfiles(ctx, env)
	case protocol.MsgRouteContent:
		return n.handleRouteContent(ctx, env)
	case protocol.MsgPing:
		return protocol.Ack(n.id, env), nil
	default:
		return protocol.Errorf(n.id, "unsupported", "node %s cannot handle %s", n.id, env.Header.Type), nil
	}
}

func (n *Node) handleRegisterChild(env *protocol.Envelope) (*protocol.Envelope, error) {
	var rc protocol.RegisterChild
	if err := protocol.Decode(env, protocol.MsgRegisterChild, &rc); err != nil {
		return protocol.Errorf(n.id, "decode", "%v", err), nil
	}
	if rc.Stratum <= n.stratum {
		return protocol.Errorf(n.id, "stratum", "child stratum %d must exceed parent stratum %d", rc.Stratum, n.stratum), nil
	}
	n.mu.Lock()
	n.children[rc.NodeID] = rc.Addr
	n.mu.Unlock()
	// A fresh child is unwarm (match-all) until it advertises, which may
	// widen the aggregate this node advertised upward.
	n.propagateDigest(context.Background())
	return protocol.Ack(n.id, env), nil
}

func (n *Node) handleRegisterServer(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var rs protocol.RegisterServer
	if err := protocol.Decode(env, protocol.MsgRegisterServer, &rs); err != nil {
		return protocol.Errorf(n.id, "decode", "%v", err), nil
	}
	if rs.Name == "" || rs.Addr == "" {
		return protocol.Errorf(n.id, "register", "name and addr required"), nil
	}
	n.mu.Lock()
	// A server registers itself directly (From == its name); anything else
	// is a relayed registration from another directory node and must not be
	// recorded as a direct attachment.
	if env.Header.From == rs.Name {
		n.servers[rs.Name] = rs.Addr
	}
	// Idempotence guard: only propagate changes upward. Besides saving
	// traffic, this terminates propagation should a misconfigured directory
	// contain a cycle.
	old, existed := n.subtree[rs.Name]
	changed := !existed || old != rs.Addr
	n.subtree[rs.Name] = rs.Addr
	n.mu.Unlock()

	// A newly attached server is unwarm until it advertises a digest, which
	// may widen the content-routing aggregate.
	if env.Header.From == rs.Name {
		n.log.Info("server registered",
			logging.String("server", rs.Name), logging.String("addr", rs.Addr))
		n.propagateDigest(ctx)
	}
	if changed {
		// Best effort: the parent may be temporarily unreachable; local
		// registration still succeeded.
		_ = n.sendUp(ctx, protocol.MsgRegisterServer, &rs)
	}
	return protocol.Ack(n.id, env), nil
}

// sendUp relays one payload to the parent, if there is one: how names,
// group joins and their withdrawals propagate towards the root.
func (n *Node) sendUp(ctx context.Context, typ protocol.MessageType, payload any) error {
	n.mu.Lock()
	parentAddr := n.parentAddr
	n.mu.Unlock()
	if parentAddr == "" {
		return nil
	}
	env, err := protocol.NewEnvelope(n.id, typ, payload)
	if err != nil {
		return err
	}
	return transport.SendOneWay(ctx, n.tr, parentAddr, env)
}

func (n *Node) handleUnregisterServer(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var us protocol.UnregisterServer
	if err := protocol.Decode(env, protocol.MsgUnregisterServer, &us); err != nil {
		return protocol.Errorf(n.id, "decode", "%v", err), nil
	}
	n.mu.Lock()
	_, existed := n.subtree[us.Name]
	_, wasDirect := n.servers[us.Name]
	delete(n.servers, us.Name)
	delete(n.subtree, us.Name)
	if wasDirect {
		delete(n.digests, us.Name)
	}
	n.mu.Unlock()
	if wasDirect {
		// The departed server's interests no longer hold the aggregate open.
		n.log.Info("server unregistered", logging.String("server", us.Name))
		n.propagateDigest(ctx)
	}
	if existed {
		_ = n.sendUp(ctx, protocol.MsgUnregisterServer, &us) // best effort
	}
	return protocol.Ack(n.id, env), nil
}

func (n *Node) handleResolve(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var r protocol.Resolve
	if err := protocol.Decode(env, protocol.MsgResolve, &r); err != nil {
		return protocol.Errorf(n.id, "decode", "%v", err), nil
	}
	n.m.Resolves.Inc()
	n.mu.Lock()
	addr, found := n.subtree[r.Name]
	parentAddr := n.parentAddr
	n.mu.Unlock()
	if found {
		return protocol.MustEnvelope(n.id, protocol.MsgResolveResult, &protocol.ResolveResult{
			Name: r.Name, Addr: addr, Found: true, Stratum: n.stratum,
		}), nil
	}
	if r.NoRecurse || parentAddr == "" {
		return protocol.MustEnvelope(n.id, protocol.MsgResolveResult, &protocol.ResolveResult{
			Name: r.Name, Found: false, Stratum: n.stratum,
		}), nil
	}
	// Delegate upwards: an ancestor knows every name in its larger subtree.
	n.m.ResolvesDelegated.Inc()
	up, err := protocol.NewEnvelope(n.id, protocol.MsgResolve, &r)
	if err != nil {
		return protocol.Errorf(n.id, "encode", "%v", err), nil
	}
	var rr protocol.ResolveResult
	if err := transport.SendExpect(ctx, n.tr, parentAddr, up, protocol.MsgResolveResult, &rr); err != nil {
		return protocol.Errorf(n.id, "delegate", "parent resolve failed: %v", err), nil
	}
	return protocol.MustEnvelope(n.id, protocol.MsgResolveResult, &rr), nil
}

// hopMode is what one dissemination mode contributes to a hop; everything
// else — dedup, decode, tracing, delivery, relay and the ack — is hop's.
type hopMode struct {
	// inner is the marshalled envelope the wrapper carried.
	inner []byte
	// span is the mode attribute of the hop's route-hop span.
	span string
	// count bumps the mode's relayed counter (post-dedup).
	count func()
	// links selects, under n.mu, the addresses of the registered servers to
	// deliver to and of the tree links to relay over, for an envelope that
	// arrived from the link named from (which is never sent back to). Both
	// lists come back in send order, which must not depend on map iteration:
	// simulations replay seeds expecting identical event interleavings
	// (E19's byte-identical flight bundles).
	links func(from string) (deliver, relay []string)
}

// hop is the directory's one dissemination primitive (paper §4.1, §6): an
// enveloped event enters this node, is delivered to the servers registered
// here and relayed up and down the tree. payload is the mode's zero wrapper;
// mode reads it once it is decoded. Broadcast, multicast and content routing
// differ only in their hopMode.
func (n *Node) hop(ctx context.Context, env *protocol.Envelope, payload any, mode func() hopMode) (*protocol.Envelope, error) {
	hopStart := time.Now()
	if n.dedup.Observe(env.Header.ID) {
		return protocol.Ack(n.id, env), nil
	}
	if err := protocol.Decode(env, env.Header.Type, payload); err != nil {
		return protocol.Errorf(n.id, "decode", "%v", err), nil
	}
	m := mode()
	inner, err := protocol.Unmarshal(m.inner)
	if err != nil {
		return protocol.Errorf(n.id, "inner", "%v", err), nil
	}
	m.count()

	n.mu.Lock()
	deliver, relay := m.links(env.Header.From)
	n.mu.Unlock()

	hopCtx := n.hopSpan(env, hopStart, m.span)

	for _, addr := range deliver {
		_ = transport.SendOneWay(ctx, n.tr, addr, n.deliveryOf(inner, env, hopCtx)) // best effort
		n.m.Deliveries.Inc()
	}
	if env.Forwardable() {
		for _, addr := range relay {
			fwd := env.NextHop()
			fwd.Header.From = n.id
			if hopCtx != "" {
				fwd.Header.Trace = hopCtx
			}
			_ = transport.SendOneWay(ctx, n.tr, addr, fwd) // best effort
		}
	}
	return protocol.Ack(n.id, env), nil
}

// treeLinksLocked selects every link want accepts (nil accepts all), except
// the one the envelope arrived on: servers sorted, then the parent — which
// is never filtered — and the children sorted together. Callers hold n.mu.
func (n *Node) treeLinksLocked(from string, want func(link string) bool) (deliver, relay []string) {
	deliver = make([]string, 0, len(n.servers))
	relay = make([]string, 0, len(n.children)+1)
	for name, addr := range n.servers {
		if name != from && (want == nil || want(name)) {
			deliver = append(deliver, addr)
		}
	}
	if n.parentAddr != "" && from != n.parentID {
		relay = append(relay, n.parentAddr)
	}
	for childID, addr := range n.children {
		if childID != from && (want == nil || want(childID)) {
			relay = append(relay, addr)
		}
	}
	sort.Strings(deliver)
	sort.Strings(relay)
	return deliver, relay
}

// handleBroadcast floods the wrapped envelope to every server in the tree:
// it delivers to locally registered servers, then forwards up to the parent
// and down to every child except the link it arrived on (paper §4.1).
func (n *Node) handleBroadcast(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var bc protocol.Broadcast
	return n.hop(ctx, env, &bc, func() hopMode {
		return hopMode{
			inner: bc.Inner,
			span:  "broadcast",
			count: n.m.Broadcasts.Inc,
			links: func(from string) ([]string, []string) { return n.treeLinksLocked(from, nil) },
		}
	})
}

// deliveryOf returns the wrapped envelope as this node delivers it to a
// server: inner's header re-stamped with the carrying envelope's accumulated
// virtual latency and hop count (for measurement), this node as the sender
// and, when the hop is traced, its span as the new parent. The copy shares
// inner's body — envelope bodies are never modified once built.
func (n *Node) deliveryOf(inner, env *protocol.Envelope, hopCtx string) *protocol.Envelope {
	d := *inner
	d.Header.VirtualLatencyMicros = env.Header.VirtualLatencyMicros
	d.Header.Hops = env.Header.Hops
	d.Header.From = n.id
	if hopCtx != "" {
		d.Header.Trace = hopCtx
	}
	return &d
}

func (n *Node) handleJoinGroup(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var jg protocol.JoinGroup
	if err := protocol.Decode(env, protocol.MsgJoinGroup, &jg); err != nil {
		return protocol.Errorf(n.id, "decode", "%v", err), nil
	}
	if jg.Group == "" || jg.Name == "" {
		return protocol.Errorf(n.id, "join", "group and name required"), nil
	}
	n.mu.Lock()
	// As with registrations, a join is direct only when the member itself
	// sent it; relayed joins record the relaying node so multicasts can
	// descend into the right subtree.
	viaChild := ""
	if env.Header.From != jg.Name {
		viaChild = env.Header.From
	}
	ms := n.groups[jg.Group]
	if ms == nil {
		ms = make(map[string]member)
		n.groups[jg.Group] = ms
	}
	old, existed := ms[jg.Name]
	changed := !existed || old.addr != jg.Addr
	ms[jg.Name] = member{addr: jg.Addr, viaChild: viaChild}
	n.mu.Unlock()

	if changed {
		_ = n.sendUp(ctx, protocol.MsgJoinGroup, &jg) // best effort
	}
	return protocol.Ack(n.id, env), nil
}

func (n *Node) handleLeaveGroup(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var lg protocol.LeaveGroup
	if err := protocol.Decode(env, protocol.MsgLeaveGroup, &lg); err != nil {
		return protocol.Errorf(n.id, "decode", "%v", err), nil
	}
	n.mu.Lock()
	existed := false
	if ms := n.groups[lg.Group]; ms != nil {
		_, existed = ms[lg.Name]
		delete(ms, lg.Name)
		if len(ms) == 0 {
			delete(n.groups, lg.Group)
		}
	}
	n.mu.Unlock()
	if existed {
		_ = n.sendUp(ctx, protocol.MsgLeaveGroup, &lg) // best effort
	}
	return protocol.Ack(n.id, env), nil
}

// handleMulticast delivers the wrapped envelope to group members: directly
// registered members receive it here; the message descends only into child
// subtrees that reported membership and otherwise climbs towards the root.
func (n *Node) handleMulticast(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	var mc protocol.Multicast
	return n.hop(ctx, env, &mc, func() hopMode {
		return hopMode{
			inner: mc.Inner,
			span:  "multicast",
			count: n.m.Multicasts.Inc,
			links: func(from string) ([]string, []string) { return n.groupLinksLocked(mc.Group, from) },
		}
	})
}

// groupLinksLocked selects the group's direct members, sorted, then the
// parent, then the children whose subtrees reported a member, sorted.
// Callers hold n.mu.
func (n *Node) groupLinksLocked(group, from string) (deliver, relay []string) {
	var below []string
	for name, m := range n.groups[group] {
		switch {
		case m.viaChild == "":
			if name != from {
				deliver = append(deliver, m.addr)
			}
		case m.viaChild != from:
			if addr := n.children[m.viaChild]; addr != "" {
				below = append(below, addr)
			}
		}
	}
	sort.Strings(deliver)
	sort.Strings(below)
	if n.parentAddr != "" && from != n.parentID {
		relay = append(relay, n.parentAddr)
	}
	return deliver, append(relay, slices.Compact(below)...)
}

// Info describes a node's current state for tooling and tests.
type Info struct {
	ID       string
	Stratum  int
	ParentID string
	Children []string
	Servers  []string
	Subtree  []string
	Groups   map[string][]string
	// Digests is the content-routing table: tree link -> advertised digest
	// conjunctions. Links missing from the map are unwarm (match-all).
	Digests map[string][]string
	// Advertised is the canonical aggregate digest last advertised to the
	// parent ("" when nothing was advertised yet).
	Advertised string
	Deliveries int64
	DedupHits  int64
}

// Snapshot returns a copy of the node's state.
func (n *Node) Snapshot() Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	info := Info{
		ID:         n.id,
		Stratum:    n.stratum,
		ParentID:   n.parentID,
		Deliveries: n.m.Deliveries.Value(),
		DedupHits:  n.dedup.Hits(),
		Groups:     make(map[string][]string, len(n.groups)),
		Digests:    make(map[string][]string, len(n.digests)),
		Advertised: n.advertised,
	}
	for link, d := range n.digests {
		info.Digests[link] = d.Strings()
	}
	for c := range n.children {
		info.Children = append(info.Children, c)
	}
	for s := range n.servers {
		info.Servers = append(info.Servers, s)
	}
	for s := range n.subtree {
		info.Subtree = append(info.Subtree, s)
	}
	for g, ms := range n.groups {
		for name := range ms {
			info.Groups[g] = append(info.Groups[g], name)
		}
		sort.Strings(info.Groups[g])
	}
	sort.Strings(info.Children)
	sort.Strings(info.Servers)
	sort.Strings(info.Subtree)
	return info
}
