package gds

import (
	"context"
	"testing"

	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

func digest(t *testing.T, src string) profile.Digest {
	t.Helper()
	if src == "" {
		return profile.Digest{}
	}
	return profile.DigestOf(profile.MustParse(src))
}

// contentTree registers four servers across the Figure-2 tree and puts
// every link into the warmed state with the given digests ("" = empty
// digest, i.e. no interests).
func contentTree(t *testing.T, tr *transport.Memory, digests map[string]string) (map[string]*Node, map[string]*recorder, map[string]*Client) {
	t.Helper()
	nodes := buildTestTree(t, tr)
	ctx := context.Background()
	placement := map[string]string{ // server -> gds node addr
		"Hamilton": "addr:n5",
		"London":   "addr:n7",
		"Berlin":   "addr:n6",
		"Tokyo":    "addr:n3",
	}
	recorders := make(map[string]*recorder, len(placement))
	clients := make(map[string]*Client, len(placement))
	for name, nodeAddr := range placement {
		recorders[name] = newRecorder(t, tr, name, "addr:"+name)
		clients[name] = NewClient(name, "addr:"+name, nodeAddr, tr)
		if err := clients[name].Register(ctx); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		if src, ok := digests[name]; ok {
			if err := clients[name].AdvertiseProfiles(ctx, digest(t, src)); err != nil {
				t.Fatalf("advertise %s: %v", name, err)
			}
		}
	}
	return nodes, recorders, clients
}

func routeEvent(t *testing.T, c *Client, attrs map[string]string, flood bool) {
	t.Helper()
	inner := protocol.MustEnvelope("Hamilton", protocol.MsgEvent,
		&protocol.EventPayload{Event: protocol.Wrap([]byte("<AlertEvent/>"))})
	if err := c.RouteContent(context.Background(), attrs, inner, flood); err != nil {
		t.Fatal(err)
	}
}

var hamiltonRebuilt = map[string]string{
	"collection": "hamilton.d",
	"event.type": "collection-rebuilt",
	"host":       "hamilton",
}

func TestContentRoutingDeliversByDigest(t *testing.T) {
	tr := transport.NewMemory()
	nodes, recorders, clients := contentTree(t, tr, map[string]string{
		"Hamilton": "",
		"London":   `collection = "Hamilton.D"`,
		"Berlin":   "", // explicitly no interests
		"Tokyo":    `collection = "Other.X" AND event.type = "collection-rebuilt"`,
	})

	routeEvent(t, clients["Hamilton"], hamiltonRebuilt, false)

	if got := recorders["London"].count(); got != 1 {
		t.Errorf("London (interested) received %d, want 1", got)
	}
	for _, name := range []string{"Hamilton", "Berlin", "Tokyo"} {
		if got := recorders[name].count(); got != 0 {
			t.Errorf("%s received %d, want 0", name, got)
		}
	}
	// The delivered envelope is the inner event, as with broadcast.
	if env := recorders["London"].last(); env.Header.Type != protocol.MsgEvent {
		t.Errorf("delivered type = %s", env.Header.Type)
	}

	// The routing tables converged: the root holds one digest per child
	// link, and only the n4 branch (towards London) matches.
	root := nodes["n1"].Snapshot()
	for _, child := range []string{"n2", "n3", "n4"} {
		if _, ok := root.Digests[child]; !ok {
			t.Fatalf("root has no digest for child %s: %v", child, root.Digests)
		}
	}
	if len(root.Digests["n2"]) != 0 { // Hamilton ∅ + Berlin ∅
		t.Errorf("root digest for n2 = %v, want empty", root.Digests["n2"])
	}
	if len(root.Digests["n4"]) == 0 {
		t.Errorf("root digest for n4 is empty, want London's interest")
	}

	// An event matching nobody climbs to the root but descends nowhere.
	tr.ResetStats()
	routeEvent(t, clients["Hamilton"], map[string]string{
		"collection": "nowhere.z", "event.type": "documents-added",
	}, false)
	for name, r := range recorders {
		want := 0
		if name == "London" {
			want = 1 // still only the earlier delivery
		}
		if got := r.count(); got != want {
			t.Errorf("%s received %d after no-match publish, want %d", name, got, want)
		}
	}
	// Climb-only: n5 -> n2 -> n1, no descent, no deliveries.
	if sent := tr.Stats().PerType[protocol.MsgRouteContent]; sent != 3 {
		t.Errorf("no-match publish used %d RouteContent hops, want 3 (climb only)", sent)
	}
}

func TestContentRoutingUnwarmLinkFloods(t *testing.T) {
	tr := transport.NewMemory()
	// Berlin never advertises: its link (and every aggregate above it)
	// stays match-all, so it keeps receiving everything.
	_, recorders, clients := contentTree(t, tr, map[string]string{
		"Hamilton": "",
		"London":   `collection = "Hamilton.D"`,
		"Tokyo":    "",
	})
	routeEvent(t, clients["Hamilton"], hamiltonRebuilt, false)
	if got := recorders["Berlin"].count(); got != 1 {
		t.Errorf("unwarmed Berlin received %d, want 1 (match-all fallback)", got)
	}
	if got := recorders["London"].count(); got != 1 {
		t.Errorf("London received %d, want 1", got)
	}
	if got := recorders["Tokyo"].count(); got != 0 {
		t.Errorf("Tokyo advertised no interests but received %d", got)
	}
}

func TestContentRoutingFloodFallbackFlag(t *testing.T) {
	tr := transport.NewMemory()
	_, recorders, clients := contentTree(t, tr, map[string]string{
		"Hamilton": "", "London": "", "Berlin": "", "Tokyo": "",
	})
	// Every digest is empty, but the publisher has not warmed up yet and
	// forces the flood path: everyone except the origin receives.
	routeEvent(t, clients["Hamilton"], hamiltonRebuilt, true)
	for name, r := range recorders {
		want := 1
		if name == "Hamilton" {
			want = 0
		}
		if got := r.count(); got != want {
			t.Errorf("%s received %d under flood fallback, want %d", name, got, want)
		}
	}
}

func TestAdvertisementCoveringPrune(t *testing.T) {
	tr := transport.NewMemory()
	nodes, _, _ := contentTree(t, tr, map[string]string{
		"Hamilton": "", "London": `collection = "Hamilton.D"`, "Berlin": "", "Tokyo": "",
	})
	ctx := context.Background()

	// A second server joins at n7 and initially advertises the same
	// interest as London, settling the tables.
	newRecorder(t, tr, "Paris", "addr:Paris")
	paris := NewClient("Paris", "addr:Paris", "addr:n7", tr)
	if err := paris.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if err := paris.AdvertiseProfiles(ctx, digest(t, `collection = "Hamilton.D"`)); err != nil {
		t.Fatal(err)
	}
	before := nodes["n1"].Snapshot().Digests["n4"]

	// Paris narrows to a digest covered by London's: n7's pruned aggregate
	// is unchanged, so the advertisement travels exactly one hop and stops.
	tr.ResetStats()
	if err := paris.AdvertiseProfiles(ctx,
		digest(t, `collection = "Hamilton.D" AND event.type = "collection-rebuilt"`)); err != nil {
		t.Fatal(err)
	}
	if sent := tr.Stats().PerType[protocol.MsgAdvertiseProfiles]; sent != 1 {
		t.Errorf("covered advertisement triggered %d AdvertiseProfiles messages, want 1 (Paris->n7 only)", sent)
	}
	after := nodes["n1"].Snapshot().Digests["n4"]
	if len(before) != 1 || len(after) != 1 || before[0] != after[0] {
		t.Errorf("root digest for n4 changed by covered advertisement: %v -> %v", before, after)
	}
	// But the change is recorded locally at n7 for precise descent.
	if got := nodes["n7"].Snapshot().Digests["Paris"]; len(got) != 1 ||
		got[0] != `collection = "Hamilton.D" AND event.type = "collection-rebuilt"` {
		t.Errorf("n7 digest for Paris = %v", got)
	}
}

func TestContentTableConvergesAfterCancel(t *testing.T) {
	tr := transport.NewMemory()
	nodes, recorders, clients := contentTree(t, tr, map[string]string{
		"Hamilton": "", "London": `collection = "Hamilton.D"`, "Berlin": "", "Tokyo": "",
	})
	ctx := context.Background()

	routeEvent(t, clients["Hamilton"], hamiltonRebuilt, false)
	if got := recorders["London"].count(); got != 1 {
		t.Fatalf("London received %d before cancel, want 1", got)
	}

	// London cancels its last profile: the empty digest replaces the old
	// one on every link up to the root.
	if err := clients["London"].AdvertiseProfiles(ctx, profile.Digest{}); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct{ node, link string }{
		{"n7", "London"}, {"n4", "n7"}, {"n1", "n4"},
	} {
		snap := nodes[probe.node].Snapshot()
		d, ok := snap.Digests[probe.link]
		if !ok {
			t.Fatalf("%s lost the digest for link %s entirely", probe.node, probe.link)
		}
		if len(d) != 0 {
			t.Errorf("%s digest for link %s = %v, want empty after cancel", probe.node, probe.link, d)
		}
	}

	// Subsequent publishes no longer descend to London.
	routeEvent(t, clients["Hamilton"], hamiltonRebuilt, false)
	if got := recorders["London"].count(); got != 1 {
		t.Errorf("London received %d after cancel, want still 1", got)
	}

	// Withdrawing instead of cancelling returns the link to match-all.
	if err := clients["London"].UnadvertiseProfiles(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := nodes["n7"].Snapshot().Digests["London"]; ok {
		t.Error("unadvertise left a digest behind")
	}
	routeEvent(t, clients["Hamilton"], map[string]string{
		"collection": "anything.a", "event.type": "documents-added",
	}, false)
	if got := recorders["London"].count(); got != 2 {
		t.Errorf("London received %d after unadvertise, want 2 (match-all again)", got)
	}
}
