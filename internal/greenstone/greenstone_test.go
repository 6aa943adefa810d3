package greenstone_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/sim"
)

// figure1Cluster reproduces the deployment of the paper's Figure 1: hosts
// Hamilton (collections A, B, C, D) and London (E, F, G) where
//   - Hamilton.C is virtual (no data, only sub-collections),
//   - Hamilton.D is distributed: its data set d plus sub-collection London.E,
//   - London.E is also an independent public collection,
//   - London.G is private, accessible only as a sub-collection of London.F.
func figure1Cluster(t testing.TB) *sim.Cluster {
	t.Helper()
	c, err := sim.NewCluster(sim.ClusterConfig{Seed: 42, GDSNodes: 3, GDSBranching: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	if _, err := c.AddServer("Hamilton", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddServer("London", 2); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ham := c.Server("Hamilton")
	lon := c.Server("London")

	mustAdd := func(s interface {
		AddCollection(context.Context, collection.Config) (*collection.Collection, error)
	}, cfg collection.Config) {
		t.Helper()
		if _, err := s.AddCollection(ctx, cfg); err != nil {
			t.Fatalf("add %s: %v", cfg.Name, err)
		}
	}
	mustAdd(ham, collection.Config{Name: "A", Public: true})
	mustAdd(ham, collection.Config{Name: "B", Public: true})
	mustAdd(ham, collection.Config{Name: "C", Public: true, Subs: []collection.SubRef{{Host: "London", Name: "F"}}})
	mustAdd(ham, collection.Config{Name: "D", Public: true, IndexFields: []string{"dc.Title"},
		Subs: []collection.SubRef{{Host: "London", Name: "E"}}})
	mustAdd(lon, collection.Config{Name: "E", Public: true, IndexFields: []string{"dc.Title"}})
	mustAdd(lon, collection.Config{Name: "F", Public: true, Classifiers: []string{"dc.Title"},
		Subs: []collection.SubRef{{Name: "G"}}})
	mustAdd(lon, collection.Config{Name: "G", Public: false})

	build := func(s *serverAlias, name string, docs []*collection.Document) {
		t.Helper()
		if _, _, err := c.Server(s.name).Build(ctx, name, docs); err != nil {
			t.Fatalf("build %s.%s: %v", s.name, name, err)
		}
	}
	build(&serverAlias{"Hamilton"}, "A", docsWith("a", 2))
	build(&serverAlias{"Hamilton"}, "B", docsWith("b", 2))
	build(&serverAlias{"Hamilton"}, "D", docsWith("d", 3))
	build(&serverAlias{"London"}, "E", docsWith("e", 3))
	build(&serverAlias{"London"}, "F", docsWith("f", 2))
	build(&serverAlias{"London"}, "G", docsWith("g", 2))
	return c
}

type serverAlias struct{ name string }

func docsWith(prefix string, n int) []*collection.Document {
	docs := make([]*collection.Document, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s%d", prefix, i+1)
		docs = append(docs, &collection.Document{
			ID: id,
			Metadata: map[string][]string{
				"dc.Title": {fmt.Sprintf("Title %s from set %s", id, prefix)},
			},
			Content: fmt.Sprintf("text for %s mentioning topic-%s and shared-topic", id, prefix),
			MIME:    "text/plain",
		})
	}
	return docs
}

func TestFigure1Topology(t *testing.T) {
	c := figure1Cluster(t)
	ctx := context.Background()

	// Receptionist I has access to both hosts (paper Figure 1).
	recepI := c.NewReceptionist("recep-I", "Hamilton", "London")
	results, err := recepI.Describe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("describe results = %d", len(results))
	}
	byHost := map[string][]string{}
	for _, r := range results {
		for _, ci := range r.Collections {
			byHost[r.Host] = append(byHost[r.Host], ci.Name)
		}
	}
	if got := strings.Join(byHost["Hamilton"], ","); got != "A,B,C,D" {
		t.Errorf("Hamilton collections = %s", got)
	}
	// G is private: not visible in its own right (paper §3).
	if got := strings.Join(byHost["London"], ","); got != "E,F" {
		t.Errorf("London collections = %s (private G must be hidden)", got)
	}

	// Hamilton.C is virtual.
	for _, r := range results {
		for _, ci := range r.Collections {
			if r.Host == "Hamilton" && ci.Name == "C" && !ci.Virtual {
				t.Error("Hamilton.C should be virtual")
			}
			if r.Host == "Hamilton" && ci.Name == "D" {
				if len(ci.SubCollections) != 1 || ci.SubCollections[0] != "London.E" {
					t.Errorf("D subs = %v", ci.SubCollections)
				}
			}
		}
	}
}

func TestDistributedDataAccess(t *testing.T) {
	c := figure1Cluster(t)
	ctx := context.Background()
	recep := c.NewReceptionist("recep-I", "Hamilton")

	// Collecting Hamilton.D yields its local data d plus London.E's data e
	// (the paper §3 walk).
	res, err := recep.CollectData(ctx, "Hamilton", "D")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, d := range res.Documents {
		ids = append(ids, d.ID)
	}
	if got := strings.Join(ids, ","); got != "d1,d2,d3,e1,e2,e3" {
		t.Errorf("collected docs = %s", got)
	}
	if res.Truncated {
		t.Error("collect unexpectedly truncated")
	}

	// Distributed search across D follows into London.E.
	sr, err := recep.Search(ctx, "Hamilton", "D", "shared-topic", "", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	colls := map[string]int{}
	for _, h := range sr.Hits {
		colls[h.Collection]++
	}
	if colls["Hamilton.D"] != 3 || colls["London.E"] != 3 {
		t.Errorf("distributed search hits = %v", colls)
	}
	// Non-follow search stays local.
	sr, err = recep.Search(ctx, "Hamilton", "D", "shared-topic", "", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Hits) != 3 {
		t.Errorf("local-only hits = %d", len(sr.Hits))
	}
}

func TestPrivateSubCollectionAccessibleViaParent(t *testing.T) {
	c := figure1Cluster(t)
	ctx := context.Background()
	recep := c.NewReceptionist("r", "London")
	// G is private but reachable as sub-collection of F.
	res, err := recep.CollectData(ctx, "London", "F")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(res.Documents))
	for _, d := range res.Documents {
		ids = append(ids, d.ID)
	}
	if got := strings.Join(ids, ","); got != "f1,f2,g1,g2" {
		t.Errorf("F data = %s", got)
	}
}

func TestCyclicSubCollectionsTerminate(t *testing.T) {
	c, err := sim.NewCluster(sim.ClusterConfig{Seed: 7, GDSNodes: 1, GDSBranching: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	if _, err := c.AddServer("X", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddServer("Y", 0); err != nil {
		t.Fatal(err)
	}
	// X.P includes Y.Q; Y.Q includes X.P — a cycle (paper §1 problem 2).
	if _, err := c.Server("X").AddCollection(ctx, collection.Config{
		Name: "P", Public: true, Subs: []collection.SubRef{{Host: "Y", Name: "Q"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Server("Y").AddCollection(ctx, collection.Config{
		Name: "Q", Public: true, Subs: []collection.SubRef{{Host: "X", Name: "P"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Server("X").Build(ctx, "P", docsWith("p", 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Server("Y").Build(ctx, "Q", docsWith("q", 2)); err != nil {
		t.Fatal(err)
	}
	recep := c.NewReceptionist("r", "X")
	res, err := recep.CollectData(ctx, "X", "P")
	if err != nil {
		t.Fatal(err)
	}
	// Terminates and returns each doc exactly once.
	seen := map[string]int{}
	for _, d := range res.Documents {
		seen[d.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("doc %s returned %d times", id, n)
		}
	}
	if len(seen) != 4 {
		t.Errorf("docs = %d, want 4", len(seen))
	}
}

// TestFigure3AuxRoundTrip is the paper's central distributed-collection
// scenario: London.E (sub-collection of Hamilton.D) is rebuilt; the event
// matches the auxiliary profile at London, travels the GS network to
// Hamilton, is renamed to Hamilton.D and re-broadcast; a client subscribed
// to Hamilton.D at a third server (Berlin) is notified.
func TestFigure3AuxRoundTrip(t *testing.T) {
	c, err := sim.NewCluster(sim.ClusterConfig{Seed: 11, GDSNodes: 3, GDSBranching: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	for i, name := range []string{"Hamilton", "London", "Berlin"} {
		if _, err := c.AddServer(name, i%3); err != nil {
			t.Fatal(err)
		}
	}
	// Hamilton.D ⊃ London.E.
	if _, err := c.Server("Hamilton").AddCollection(ctx, collection.Config{
		Name: "D", Public: true, Subs: []collection.SubRef{{Host: "London", Name: "E"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Server("London").AddCollection(ctx, collection.Config{Name: "E", Public: true}); err != nil {
		t.Fatal(err)
	}
	// The aux profile must now be installed at London.
	if got := c.Service("London").AuxProfileCount(); got != 1 {
		t.Fatalf("aux profiles at London = %d", got)
	}

	// Clients: carol at Berlin subscribed to Hamilton.D; dave at London
	// subscribed to London.E directly.
	carol := c.Notifier("Berlin", "carol")
	if _, err := c.Service("Berlin").Subscribe("carol", profile.MustParse(`collection = "Hamilton.D"`)); err != nil {
		t.Fatal(err)
	}
	dave := c.Notifier("London", "dave")
	if _, err := c.Service("London").Subscribe("dave", profile.MustParse(`collection = "London.E"`)); err != nil {
		t.Fatal(err)
	}

	// Rebuild London.E.
	if _, _, err := c.Server("London").Build(ctx, "E", docsWith("e", 2)); err != nil {
		t.Fatal(err)
	}
	c.Settle(ctx)

	// dave sees the raw London.E event.
	if dave.Len() != 1 {
		t.Fatalf("dave notifications = %d", dave.Len())
	}
	if got := dave.All()[0].Event.Collection.String(); got != "London.E" {
		t.Errorf("dave event about %s", got)
	}
	// carol sees the TRANSFORMED event: about Hamilton.D, originating from
	// London.E.
	if carol.Len() != 1 {
		t.Fatalf("carol notifications = %d", carol.Len())
	}
	ev := carol.All()[0].Event
	if ev.Collection.String() != "Hamilton.D" {
		t.Errorf("carol event about %s, want Hamilton.D", ev.Collection)
	}
	if ev.Origin.String() != "London.E" {
		t.Errorf("carol event origin %s, want London.E", ev.Origin)
	}
	if len(ev.Chain) != 2 {
		t.Errorf("chain = %v", ev.Chain)
	}
	// Hamilton performed exactly one transform.
	if st := c.Service("Hamilton").Stats(); st.Transforms != 1 {
		t.Errorf("Hamilton transforms = %d", st.Transforms)
	}
}

// TestCyclicSuperSubAlertingTerminates checks the alerting-side cycle guard
// (transform chains): X.P ⊃ Y.Q and Y.Q ⊃ X.P.
func TestCyclicSuperSubAlertingTerminates(t *testing.T) {
	c, err := sim.NewCluster(sim.ClusterConfig{Seed: 13, GDSNodes: 1, GDSBranching: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	_, _ = c.AddServer("X", 0)
	_, _ = c.AddServer("Y", 0)
	if _, err := c.Server("X").AddCollection(ctx, collection.Config{
		Name: "P", Public: true, Subs: []collection.SubRef{{Host: "Y", Name: "Q"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Server("Y").AddCollection(ctx, collection.Config{
		Name: "Q", Public: true, Subs: []collection.SubRef{{Host: "X", Name: "P"}},
	}); err != nil {
		t.Fatal(err)
	}
	// Watchers on both collections at a third-party server.
	_, _ = c.AddServer("Z", 0)
	zp := c.Notifier("Z", "zp")
	if _, err := c.Service("Z").Subscribe("zp", profile.MustParse(`collection = "X.P" OR collection = "Y.Q"`)); err != nil {
		t.Fatal(err)
	}

	if _, _, err := c.Server("Y").Build(ctx, "Q", docsWith("q", 1)); err != nil {
		t.Fatal(err)
	}
	c.Settle(ctx)
	// One raw event (Y.Q) + one transform (X.P); the transform back to Y.Q
	// is refused by the chain guard.
	if zp.Len() != 2 {
		t.Fatalf("zp notifications = %d, want 2 (raw + one transform)", zp.Len())
	}
	stX := c.Service("X").Stats()
	stY := c.Service("Y").Stats()
	if stX.Transforms != 1 {
		t.Errorf("X transforms = %d", stX.Transforms)
	}
	if refusals := stX.CycleRefusals + stY.CycleRefusals; refusals == 0 {
		t.Error("no cycle refusals recorded — the loop was not exercised")
	}
	if stY.Transforms != 0 {
		t.Errorf("Y transforms = %d, want 0 (cycle refused)", stY.Transforms)
	}
}

// TestDanglingProfileCases exercises paper §7's three dangling-auxiliary-
// profile scenarios: notifications are delayed, not lost, and cancellation
// is applied after reconnection — users never see spurious notifications.
func TestDanglingProfileCases(t *testing.T) {
	c, err := sim.NewCluster(sim.ClusterConfig{Seed: 17, GDSNodes: 2, GDSBranching: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	_, _ = c.AddServer("Hamilton", 0)
	_, _ = c.AddServer("London", 1)
	if _, err := c.Server("Hamilton").AddCollection(ctx, collection.Config{
		Name: "D", Public: true, Subs: []collection.SubRef{{Host: "London", Name: "E"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Server("London").AddCollection(ctx, collection.Config{Name: "E", Public: true}); err != nil {
		t.Fatal(err)
	}
	alice := c.Notifier("Hamilton", "alice")
	if _, err := c.Service("Hamilton").Subscribe("alice", profile.MustParse(`collection = "Hamilton.D"`)); err != nil {
		t.Fatal(err)
	}

	// Case 3 (severed connection): partition the GS link Hamilton<->London,
	// rebuild London.E. The aux forward is queued, not lost; the GDS flood
	// still delivers the raw London.E event (which alice ignores).
	c.PartitionServers("Hamilton", "London")
	if _, _, err := c.Server("London").Build(ctx, "E", docsWith("e", 1)); err != nil {
		t.Fatal(err)
	}
	c.Settle(ctx)
	if alice.Len() != 0 {
		t.Fatalf("alice notified during partition: %+v", alice.All())
	}
	if st := c.Service("London").Stats(); st.ForwardingFailures == 0 {
		t.Error("forward failure not recorded during partition")
	}
	if c.Service("London").PendingForwards() == 0 {
		t.Fatal("forward not parked during partition")
	}

	// Heal and flush: the delayed notification arrives (delayed, not lost).
	c.HealServers("Hamilton", "London")
	if n := c.FlushRetries(ctx); n == 0 {
		t.Fatal("retry flush delivered nothing after heal")
	}
	c.Settle(ctx)
	if alice.Len() != 1 {
		t.Fatalf("alice notifications after heal = %d, want 1", alice.Len())
	}
	if got := alice.All()[0].Event.Collection.String(); got != "Hamilton.D" {
		t.Errorf("alice event about %s", got)
	}

	// Cancellation under partition: remove the sub-collection reference
	// while the link is again cut. The cancel is queued; after healing and
	// flushing, London drops the aux profile and no further builds notify.
	c.PartitionServers("Hamilton", "London")
	if err := c.Server("Hamilton").Reconfigure(ctx, collection.Config{Name: "D", Public: true}); err != nil {
		t.Fatal(err)
	}
	if got := c.Service("London").AuxProfileCount(); got != 1 {
		t.Fatalf("aux removed before cancel could be delivered: %d", got)
	}
	c.HealServers("Hamilton", "London")
	c.FlushRetries(ctx)
	if got := c.Service("London").AuxProfileCount(); got != 0 {
		t.Fatalf("aux profile still installed after cancel: %d", got)
	}
	alice.Reset()
	if _, _, err := c.Server("London").Build(ctx, "E", docsWith("e", 2)); err != nil {
		t.Fatal(err)
	}
	c.Settle(ctx)
	// alice subscribed to Hamilton.D; with the sub-reference gone she must
	// NOT be notified about London.E rebuilds (no false positives).
	if alice.Len() != 0 {
		t.Fatalf("false positive after cancellation: %+v", alice.All())
	}
}

func TestRemoveCollectionEmitsEventAndCancelsAux(t *testing.T) {
	c, err := sim.NewCluster(sim.ClusterConfig{Seed: 19, GDSNodes: 1, GDSBranching: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	_, _ = c.AddServer("Hamilton", 0)
	_, _ = c.AddServer("London", 0)
	if _, err := c.Server("Hamilton").AddCollection(ctx, collection.Config{
		Name: "D", Public: true, Subs: []collection.SubRef{{Host: "London", Name: "E"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Server("London").AddCollection(ctx, collection.Config{Name: "E", Public: true}); err != nil {
		t.Fatal(err)
	}
	if got := c.Service("London").AuxProfileCount(); got != 1 {
		t.Fatalf("aux = %d", got)
	}
	watcher := c.Notifier("London", "w")
	if _, err := c.Service("London").Subscribe("w", profile.MustParse(`event.type = "collection-removed"`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Server("Hamilton").RemoveCollection(ctx, "D"); err != nil {
		t.Fatal(err)
	}
	c.Settle(ctx)
	if got := c.Service("London").AuxProfileCount(); got != 0 {
		t.Errorf("aux after removal = %d", got)
	}
	if watcher.Len() != 1 {
		t.Fatalf("removal notifications = %d", watcher.Len())
	}
	if got := watcher.All()[0].Event.Type; got != event.TypeCollectionRemoved {
		t.Errorf("event type = %v", got)
	}
}

func TestSubscribeViaReceptionist(t *testing.T) {
	c := figure1Cluster(t)
	ctx := context.Background()
	recep := c.NewReceptionist("recep-II", "London")

	p := profile.NewUser("client7-p1", "client7", "London", profile.MustParse(`collection = "London.E"`))
	if err := recep.Subscribe(ctx, "London", p); err != nil {
		t.Fatal(err)
	}
	// Remote notification channel.
	ch, closeFn, err := recep.ListenForNotifications("client://client7")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closeFn() }()
	c.Service("London").RegisterNotifier("client7",
		c.RemoteNotifier("London", "client://client7"))

	if _, _, err := c.Server("London").Build(ctx, "E", docsWith("e", 4)); err != nil {
		t.Fatal(err)
	}
	c.Settle(ctx)
	select {
	case n := <-ch:
		if n.Client != "client7" || n.ProfileID != "client7-p1" {
			t.Errorf("notification = %+v", n)
		}
		if n.Event.Collection.String() != "London.E" {
			t.Errorf("event about %s", n.Event.Collection)
		}
	default:
		t.Fatal("no remote notification received")
	}

	// Ownership is enforced on the wire too.
	if err := recep.Unsubscribe(ctx, "London", "mallory", "client7-p1"); err == nil {
		t.Error("foreign unsubscribe accepted over the wire")
	}
	if err := recep.Unsubscribe(ctx, "London", "client7", "client7-p1"); err != nil {
		t.Fatal(err)
	}
}

func TestSearchRanksAndLimits(t *testing.T) {
	c := figure1Cluster(t)
	ctx := context.Background()
	recep := c.NewReceptionist("r", "London")
	res, err := recep.Search(ctx, "London", "E", "topic-e", "", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 2 {
		t.Errorf("limited hits = %d", len(res.Hits))
	}
	// Unknown collection errors cleanly.
	if _, err := recep.Search(ctx, "London", "Nope", "x", "", 0, false); err == nil {
		t.Error("search on unknown collection succeeded")
	}
}

func TestBrowse(t *testing.T) {
	c := figure1Cluster(t)
	ctx := context.Background()
	recep := c.NewReceptionist("r", "London")
	res, err := recep.Browse(ctx, "London", "F", "dc.Title")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buckets) == 0 {
		t.Fatal("no buckets")
	}
	if _, err := recep.Browse(ctx, "London", "F", "dc.Nope"); err == nil {
		t.Error("unknown classifier browse succeeded")
	}
}

func TestGetDocument(t *testing.T) {
	c := figure1Cluster(t)
	ctx := context.Background()
	recep := c.NewReceptionist("r", "Hamilton")
	d, err := recep.GetDocument(ctx, "Hamilton", "D", "d1")
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "d1" || len(d.Metadata) == 0 {
		t.Errorf("document = %+v", d)
	}
	if _, err := recep.GetDocument(ctx, "Hamilton", "D", "nope"); err == nil {
		t.Error("phantom document fetched")
	}
}

// TestReceptionistReconnectDrainsMailbox exercises the delivery pipeline's
// partition-tolerance over the wire protocol: a client attaches a remote
// notifier, goes offline while builds happen (alerts park server-side in its
// durable mailbox), then re-attaches and receives everything it missed.
func TestReceptionistReconnectDrainsMailbox(t *testing.T) {
	c := figure1Cluster(t)
	ctx := context.Background()
	recep := c.NewReceptionist("recep-III", "London")

	p := profile.NewUser("client9-p1", "client9", "London",
		profile.MustParse(`collection = "London.E" AND event.type = "collection-rebuilt"`))
	if err := recep.Subscribe(ctx, "London", p); err != nil {
		t.Fatal(err)
	}
	const clientAddr = "client://client9"
	ch, closeFn, err := recep.ListenForNotifications(clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closeFn() }()
	received := func() int {
		n := 0
		for {
			select {
			case <-ch:
				n++
			default:
				return n
			}
		}
	}

	// Online: one build delivers live via MsgAttachNotifier push.
	if err := recep.AttachNotifications(ctx, "London", "client9", clientAddr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Server("London").Build(ctx, "E", docsWith("e", 5)); err != nil {
		t.Fatal(err)
	}
	c.Settle(ctx)
	if got := received(); got != 1 {
		t.Fatalf("live notifications = %d, want 1", got)
	}

	// Offline: two builds park in the server-side mailbox.
	if err := recep.DetachNotifications(ctx, "London", "client9"); err != nil {
		t.Fatal(err)
	}
	for round := 6; round <= 7; round++ {
		if _, _, err := c.Server("London").Build(ctx, "E", docsWith("e", round)); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(ctx)
	if got := received(); got != 0 {
		t.Fatalf("detached client received %d notifications", got)
	}
	if got := c.Service("London").Delivery().Pending("client9"); got != 2 {
		t.Fatalf("parked = %d, want 2", got)
	}

	// Reconnect: the mailbox drains through the batch protocol.
	if err := recep.AttachNotifications(ctx, "London", "client9", clientAddr); err != nil {
		t.Fatal(err)
	}
	c.Settle(ctx)
	if got := received(); got != 2 {
		t.Fatalf("drained on reconnect = %d, want 2", got)
	}
	if got := c.Service("London").Delivery().Pending("client9"); got != 0 {
		t.Errorf("still parked after reconnect: %d", got)
	}
}
