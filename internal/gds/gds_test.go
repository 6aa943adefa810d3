package gds

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// recorder is a fake Greenstone server that records delivered envelopes.
type recorder struct {
	mu   sync.Mutex
	got  []*protocol.Envelope
	name string
}

func newRecorder(t *testing.T, tr transport.Transport, name, addr string) *recorder {
	t.Helper()
	r := &recorder{name: name}
	_, err := tr.Listen(addr, transport.HandlerFunc(func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		r.mu.Lock()
		r.got = append(r.got, env)
		r.mu.Unlock()
		return nil, nil
	}))
	if err != nil {
		t.Fatalf("listen %s: %v", name, err)
	}
	return r
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

func (r *recorder) last() *protocol.Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.got) == 0 {
		return nil
	}
	return r.got[len(r.got)-1]
}

// buildTestTree creates the paper's Figure 2 shape: one stratum-1 root, two
// stratum-2 nodes, three stratum-3 leaves, seven nodes total in a tree:
//
//	       n1 (s1)
//	     /    |    \
//	  n2(s2) n3(s2) n4(s2)
//	  /  \        \
//	n5    n6       n7   (s3)
func buildTestTree(t *testing.T, tr transport.Transport) map[string]*Node {
	t.Helper()
	ctx := context.Background()
	mk := func(id string, stratum int) *Node {
		n, err := NewNode(id, "addr:"+id, stratum, tr)
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	nodes := map[string]*Node{
		"n1": mk("n1", 1),
		"n2": mk("n2", 2),
		"n3": mk("n3", 2),
		"n4": mk("n4", 2),
		"n5": mk("n5", 3),
		"n6": mk("n6", 3),
		"n7": mk("n7", 3),
	}
	attach := func(child, parent string) {
		if err := nodes[child].AttachToParent(ctx, parent, "addr:"+parent); err != nil {
			t.Fatalf("attach %s->%s: %v", child, parent, err)
		}
	}
	attach("n2", "n1")
	attach("n3", "n1")
	attach("n4", "n1")
	attach("n5", "n2")
	attach("n6", "n2")
	attach("n7", "n4")
	return nodes
}

func TestNodeValidation(t *testing.T) {
	tr := transport.NewMemory()
	if _, err := NewNode("", "a", 1, tr); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := NewNode("x", "", 1, tr); err == nil {
		t.Error("empty addr accepted")
	}
	if _, err := NewNode("x", "a", 0, tr); err == nil {
		t.Error("stratum 0 accepted")
	}
}

func TestChildStratumMustExceedParent(t *testing.T) {
	tr := transport.NewMemory()
	ctx := context.Background()
	p, _ := NewNode("p", "addr:p", 2, tr)
	defer func() { _ = p.Close() }()
	c, _ := NewNode("c", "addr:c", 2, tr)
	defer func() { _ = c.Close() }()
	if err := c.AttachToParent(ctx, "p", "addr:p"); err == nil {
		t.Error("equal stratum attach accepted")
	}
}

func TestRegisterAndResolveThroughTree(t *testing.T) {
	tr := transport.NewMemory()
	nodes := buildTestTree(t, tr)
	ctx := context.Background()

	// Hamilton registers at leaf n5, London at leaf n7 (different branches).
	newRecorder(t, tr, "Hamilton", "addr:Hamilton")
	newRecorder(t, tr, "London", "addr:London")
	ham := NewClient("Hamilton", "addr:Hamilton", "addr:n5", tr)
	lon := NewClient("London", "addr:London", "addr:n7", tr)
	if err := ham.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lon.Register(ctx); err != nil {
		t.Fatal(err)
	}

	// Registration propagated to every ancestor.
	for _, id := range []string{"n5", "n2", "n1"} {
		info := nodes[id].Snapshot()
		if len(info.Subtree) == 0 || !contains(info.Subtree, "Hamilton") {
			t.Errorf("node %s subtree missing Hamilton: %v", id, info.Subtree)
		}
	}
	// n3 is on another branch and must NOT know Hamilton locally.
	if contains(nodes["n3"].Snapshot().Subtree, "Hamilton") {
		t.Error("n3 learned Hamilton without being an ancestor")
	}

	// Cross-branch resolution climbs to the root.
	addr, err := ham.Resolve(ctx, "London")
	if err != nil {
		t.Fatalf("Resolve(London): %v", err)
	}
	if addr != "addr:London" {
		t.Errorf("addr = %q", addr)
	}
	// Unknown names fail cleanly at the root.
	if _, err := ham.Resolve(ctx, "Nowhere"); !errors.Is(err, ErrNameNotFound) {
		t.Errorf("err = %v, want ErrNameNotFound", err)
	}
}

func TestResolveCache(t *testing.T) {
	tr := transport.NewMemory()
	buildTestTree(t, tr)
	ctx := context.Background()
	newRecorder(t, tr, "Hamilton", "addr:Hamilton")
	newRecorder(t, tr, "London", "addr:London")
	ham := NewClient("Hamilton", "addr:Hamilton", "addr:n5", tr)
	lon := NewClient("London", "addr:London", "addr:n7", tr)
	_ = ham.Register(ctx)
	_ = lon.Register(ctx)

	if _, err := ham.Resolve(ctx, "London"); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats().PerType[protocol.MsgResolve]
	for i := 0; i < 5; i++ {
		if _, err := ham.Resolve(ctx, "London"); err != nil {
			t.Fatal(err)
		}
	}
	after := tr.Stats().PerType[protocol.MsgResolve]
	if after != before {
		t.Errorf("cache miss: %d resolve messages for cached name", after-before)
	}
	ham.InvalidateCache("London")
	if _, err := ham.Resolve(ctx, "London"); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().PerType[protocol.MsgResolve] == after {
		t.Error("invalidated cache did not re-resolve")
	}
}

func TestBroadcastReachesAllServers(t *testing.T) {
	tr := transport.NewMemory()
	nodes := buildTestTree(t, tr)
	ctx := context.Background()

	// One server per leaf and one at the root's n3 (stratum 2).
	servers := map[string]string{ // name -> gds node addr
		"Hamilton": "addr:n5",
		"London":   "addr:n7",
		"Berlin":   "addr:n6",
		"Tokyo":    "addr:n3",
	}
	recorders := make(map[string]*recorder, len(servers))
	clients := make(map[string]*Client, len(servers))
	for name, nodeAddr := range servers {
		recorders[name] = newRecorder(t, tr, name, "addr:"+name)
		clients[name] = NewClient(name, "addr:"+name, nodeAddr, tr)
		if err := clients[name].Register(ctx); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}

	inner := protocol.MustEnvelope("Hamilton", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap([]byte("<AlertEvent/>"))})
	if err := clients["Hamilton"].Broadcast(ctx, inner); err != nil {
		t.Fatal(err)
	}

	// Everybody except the origin receives exactly one copy.
	for name, r := range recorders {
		want := 1
		if name == "Hamilton" {
			want = 0
		}
		if got := r.count(); got != want {
			t.Errorf("%s received %d, want %d", name, got, want)
		}
	}
	// Delivered envelope is the inner event with hop metadata.
	env := recorders["London"].last()
	if env.Header.Type != protocol.MsgEvent {
		t.Errorf("delivered type = %s", env.Header.Type)
	}
	if env.Header.Hops == 0 {
		t.Error("hop count not propagated")
	}
	// No duplicate deliveries even though the tree fans out: dedup hits
	// remain zero because a tree has no cycles.
	for id, n := range nodes {
		if hits := n.Snapshot().DedupHits; hits != 0 {
			t.Errorf("node %s dedup hits = %d on a tree", id, hits)
		}
	}
}

func TestBroadcastFromMidTreeServer(t *testing.T) {
	tr := transport.NewMemory()
	buildTestTree(t, tr)
	ctx := context.Background()
	recorders := map[string]*recorder{}
	for name, nodeAddr := range map[string]string{"A": "addr:n3", "B": "addr:n5", "C": "addr:n7"} {
		recorders[name] = newRecorder(t, tr, name, "addr:"+name)
		cl := NewClient(name, "addr:"+name, nodeAddr, tr)
		if err := cl.Register(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Broadcast from A at stratum-2 node n3: must go up to n1 and down into
	// both other branches.
	cl := NewClient("A", "addr:A", "addr:n3", tr)
	inner := protocol.MustEnvelope("A", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap([]byte("<AlertEvent/>"))})
	if err := cl.Broadcast(ctx, inner); err != nil {
		t.Fatal(err)
	}
	if recorders["B"].count() != 1 || recorders["C"].count() != 1 {
		t.Errorf("B=%d C=%d, want 1 each", recorders["B"].count(), recorders["C"].count())
	}
	if recorders["A"].count() != 0 {
		t.Errorf("origin got echoed %d times", recorders["A"].count())
	}
}

func TestBroadcastDedupWithCycle(t *testing.T) {
	// Deliberately create a cycle: n1 -> n2 -> n3 -> n1 (misconfigured
	// directory). Dedup must stop infinite relaying and servers must see
	// exactly one copy.
	tr := transport.NewMemory()
	ctx := context.Background()
	n1, _ := NewNode("n1", "addr:n1", 1, tr)
	n2, _ := NewNode("n2", "addr:n2", 2, tr)
	n3, _ := NewNode("n3", "addr:n3", 3, tr)
	defer func() { _ = n1.Close(); _ = n2.Close(); _ = n3.Close() }()
	if err := n2.AttachToParent(ctx, "n1", "addr:n1"); err != nil {
		t.Fatal(err)
	}
	if err := n3.AttachToParent(ctx, "n2", "addr:n2"); err != nil {
		t.Fatal(err)
	}
	// The cycle: n1 believes n3 is its parent.
	n1.mu.Lock()
	n1.parentID = "n3"
	n1.parentAddr = "addr:n3"
	n1.mu.Unlock()

	r := newRecorder(t, tr, "S", "addr:S")
	cl := NewClient("S", "addr:S", "addr:n1", tr)
	if err := cl.Register(ctx); err != nil {
		t.Fatal(err)
	}
	inner := protocol.MustEnvelope("S", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap([]byte("<AlertEvent/>"))})
	if err := cl.Broadcast(ctx, inner); err != nil {
		t.Fatal(err)
	}
	if r.count() != 0 { // origin is never echoed
		t.Errorf("origin echoed %d", r.count())
	}
	hits := n1.Snapshot().DedupHits + n2.Snapshot().DedupHits + n3.Snapshot().DedupHits
	if hits == 0 {
		t.Error("cycle produced no dedup hits — did the message loop?")
	}
}

func TestBroadcastBestEffortUnderNodeFailure(t *testing.T) {
	tr := transport.NewMemory()
	buildTestTree(t, tr)
	ctx := context.Background()
	recB := newRecorder(t, tr, "B", "addr:B")
	recC := newRecorder(t, tr, "C", "addr:C")
	for name, nodeAddr := range map[string]string{"B": "addr:n6", "C": "addr:n7"} {
		cl := NewClient(name, "addr:"+name, nodeAddr, tr)
		if err := cl.Register(ctx); err != nil {
			t.Fatal(err)
		}
	}
	newRecorder(t, tr, "A", "addr:A")
	clA := NewClient("A", "addr:A", "addr:n5", tr)
	if err := clA.Register(ctx); err != nil {
		t.Fatal(err)
	}
	// Take down n4 (London's branch): C becomes unreachable, B still gets it.
	tr.SetNodeDown("addr:n4", true)
	inner := protocol.MustEnvelope("A", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap([]byte("<AlertEvent/>"))})
	if err := clA.Broadcast(ctx, inner); err != nil {
		t.Fatal(err)
	}
	if recB.count() != 1 {
		t.Errorf("B = %d, want 1", recB.count())
	}
	if recC.count() != 0 {
		t.Errorf("C = %d, want 0 while its branch is down", recC.count())
	}
}

func TestUnregisterRemovesName(t *testing.T) {
	tr := transport.NewMemory()
	nodes := buildTestTree(t, tr)
	ctx := context.Background()
	newRecorder(t, tr, "S", "addr:S")
	cl := NewClient("S", "addr:S", "addr:n5", tr)
	_ = cl.Register(ctx)
	if !contains(nodes["n1"].Snapshot().Subtree, "S") {
		t.Fatal("registration did not reach root")
	}
	if err := cl.Unregister(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"n5", "n2", "n1"} {
		if contains(nodes[id].Snapshot().Subtree, "S") {
			t.Errorf("node %s still knows S after unregister", id)
		}
	}
	cl.InvalidateCache("S")
	if _, err := cl.Resolve(ctx, "S"); !errors.Is(err, ErrNameNotFound) {
		t.Errorf("resolve after unregister: %v", err)
	}
}

func TestMulticastOnlyMembers(t *testing.T) {
	tr := transport.NewMemory()
	buildTestTree(t, tr)
	ctx := context.Background()
	recs := map[string]*recorder{}
	cls := map[string]*Client{}
	for name, nodeAddr := range map[string]string{"A": "addr:n5", "B": "addr:n6", "C": "addr:n7", "D": "addr:n3"} {
		recs[name] = newRecorder(t, tr, name, "addr:"+name)
		cls[name] = NewClient(name, "addr:"+name, nodeAddr, tr)
		if err := cls[name].Register(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// A, C join group "music"; B, D do not.
	if err := cls["A"].JoinGroup(ctx, "music"); err != nil {
		t.Fatal(err)
	}
	if err := cls["C"].JoinGroup(ctx, "music"); err != nil {
		t.Fatal(err)
	}
	inner := protocol.MustEnvelope("A", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap([]byte("<E/>"))})
	if err := cls["A"].Multicast(ctx, "music", inner); err != nil {
		t.Fatal(err)
	}
	if recs["C"].count() != 1 {
		t.Errorf("member C got %d, want 1", recs["C"].count())
	}
	if recs["B"].count() != 0 || recs["D"].count() != 0 {
		t.Errorf("non-members received: B=%d D=%d", recs["B"].count(), recs["D"].count())
	}
	if recs["A"].count() != 0 {
		t.Errorf("origin received its own multicast %d times", recs["A"].count())
	}
	// Leave and multicast again: C should receive nothing new.
	if err := cls["C"].LeaveGroup(ctx, "music"); err != nil {
		t.Fatal(err)
	}
	inner2 := protocol.MustEnvelope("A", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap([]byte("<E2/>"))})
	if err := cls["A"].Multicast(ctx, "music", inner2); err != nil {
		t.Fatal(err)
	}
	if recs["C"].count() != 1 {
		t.Errorf("C received after leaving: %d", recs["C"].count())
	}
}

func TestPingAndUnknownType(t *testing.T) {
	tr := transport.NewMemory()
	n, _ := NewNode("n1", "addr:n1", 1, tr)
	defer func() { _ = n.Close() }()
	cl := NewClient("S", "addr:S", "addr:n1", tr)
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// Unsupported type yields an error envelope.
	env := protocol.MustEnvelope("S", protocol.MsgSearch, &protocol.Search{Collection: "X", Query: "q"})
	resp, err := tr.Send(context.Background(), "addr:n1", env)
	if err != nil {
		t.Fatal(err)
	}
	if protocol.AsError(resp) == nil {
		t.Error("unsupported type did not error")
	}
}

func TestBroadcastScalesLinear(t *testing.T) {
	// A 40-node chain with one server per node: message count per broadcast
	// should be Θ(nodes + servers).
	tr := transport.NewMemory()
	ctx := context.Background()
	const n = 40
	var prev *Node
	var firstClient *Client
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%02d", i)
		node, err := NewNode(id, "addr:"+id, i+1, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		if prev != nil {
			if err := node.AttachToParent(ctx, prev.ID(), prev.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		sname := "s" + id
		newRecorder(t, tr, sname, "addr:"+sname)
		cl := NewClient(sname, "addr:"+sname, "addr:"+id, tr)
		if err := cl.Register(ctx); err != nil {
			t.Fatal(err)
		}
		if firstClient == nil {
			firstClient = cl
		}
		prev = node
	}
	tr.ResetStats()
	inner := protocol.MustEnvelope("sc00", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap([]byte("<E/>"))})
	if err := firstClient.Broadcast(ctx, inner); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	broadcasts := st.PerType[protocol.MsgBroadcast]
	events := st.PerType[protocol.MsgEvent]
	if broadcasts != n {
		t.Errorf("broadcast relays = %d, want %d (one per node incl. injection)", broadcasts, n)
	}
	if events != n-1 {
		t.Errorf("event deliveries = %d, want %d", events, n-1)
	}
	// Deepest delivery shows the accumulated hop count.
	deepest := int64(0)
	if events > 0 {
		deepest = 1
	}
	_ = deepest
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func TestRegisterValidation(t *testing.T) {
	tr := transport.NewMemory()
	n, _ := NewNode("n1", "addr:n1", 1, tr)
	defer func() { _ = n.Close() }()
	env := protocol.MustEnvelope("S", protocol.MsgRegisterServer, &protocol.RegisterServer{Name: "", Addr: ""})
	resp, err := tr.Send(context.Background(), "addr:n1", env)
	if err != nil {
		t.Fatal(err)
	}
	if protocol.AsError(resp) == nil {
		t.Error("empty registration accepted")
	}
}

func TestResolveTTLExpiry(t *testing.T) {
	tr := transport.NewMemory()
	n, _ := NewNode("n1", "addr:n1", 1, tr)
	defer func() { _ = n.Close() }()
	newRecorder(t, tr, "S", "addr:S")
	cl := NewClient("Me", "addr:Me", "addr:n1", tr)
	other := NewClient("S", "addr:S", "addr:n1", tr)
	ctx := context.Background()
	_ = other.Register(ctx)

	fake := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	cl.now = func() time.Time { return fake }
	cl.ttl = 10 * time.Second
	if _, err := cl.Resolve(ctx, "S"); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats().PerType[protocol.MsgResolve]
	fake = fake.Add(5 * time.Second)
	_, _ = cl.Resolve(ctx, "S")
	if tr.Stats().PerType[protocol.MsgResolve] != before {
		t.Error("resolve within TTL hit the network")
	}
	fake = fake.Add(6 * time.Second)
	_, _ = cl.Resolve(ctx, "S")
	if tr.Stats().PerType[protocol.MsgResolve] == before {
		t.Error("resolve after TTL did not hit the network")
	}
}
