package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/gsalert/gsalert/internal/baseline"
	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/transport"
)

// This file implements the experiment suite of docs/EXPERIMENTS.md. Each
// function returns structured results plus a rendered table so the same
// code backs the unit tests and the alert-bench command.

// ---------------------------------------------------------------------------
// E1 — build overhead: "the filtering acts as an additional step in the
// build process ... extending the overall process insignificantly" (§8).

// BuildOverheadResult is one E1 measurement row.
type BuildOverheadResult struct {
	Docs       int
	Profiles   int
	IndexTime  time.Duration
	FilterTime time.Duration
	OverheadPc float64
}

// RunBuildOverhead measures indexing vs filtering time for one (docs,
// profiles) point, averaged over rounds rebuilds.
func RunBuildOverhead(docs, profiles, rounds int, seed int64) (BuildOverheadResult, error) {
	c, err := NewCluster(ClusterConfig{Seed: seed, GDSNodes: 1, GDSBranching: 2})
	if err != nil {
		return BuildOverheadResult{}, err
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.AddServer("Host", 0); err != nil {
		return BuildOverheadResult{}, err
	}
	if _, err := c.Server("Host").AddCollection(ctx, collection.Config{
		Name: "Col", Public: true, IndexFields: []string{"dc.Title", "dc.Creator"},
	}); err != nil {
		return BuildOverheadResult{}, err
	}
	svc := c.Service("Host")
	c.Notifier("Host", "user") // absorb notifications
	// Distinct authors per profile: the realistic selective workload the
	// equality-preferred index is designed for. Documents draw authors from
	// a 1000-name space, so a bounded subset of profiles matches per build
	// regardless of the total profile population.
	for i := 0; i < profiles; i++ {
		expr := fmt.Sprintf(`collection = "Host.Col" AND dc.Creator = "Author%d"`, i)
		if _, err := svc.Subscribe("user", profile.MustParse(expr)); err != nil {
			return BuildOverheadResult{}, err
		}
	}

	var totalIndex, totalFilter time.Duration
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		set := syntheticDocs(docs, r)
		res, filterTime, err := c.Server("Host").Build(ctx, "Col", set)
		if err != nil {
			return BuildOverheadResult{}, err
		}
		totalIndex += res.IndexDuration
		totalFilter += filterTime
	}
	out := BuildOverheadResult{
		Docs:       docs,
		Profiles:   profiles,
		IndexTime:  totalIndex / time.Duration(rounds),
		FilterTime: totalFilter / time.Duration(rounds),
	}
	if out.IndexTime > 0 {
		out.OverheadPc = 100 * float64(out.FilterTime) / float64(out.IndexTime)
	}
	return out, nil
}

// syntheticDocs builds a deterministic document set. Rebuilds are
// incremental, as real collection maintenance is: only one in twenty
// documents carries round-dependent content, so each rebuild diff touches
// ~5% of the collection.
func syntheticDocs(n, round int) []*collection.Document {
	docs := make([]*collection.Document, 0, n)
	for i := 0; i < n; i++ {
		revision := 0
		if i%20 == 0 {
			revision = round
		}
		docs = append(docs, &collection.Document{
			ID: fmt.Sprintf("doc%05d", i),
			Metadata: map[string][]string{
				"dc.Title":   {fmt.Sprintf("Title %d on subject-%d", i, i%17)},
				"dc.Creator": {fmt.Sprintf("Author%d", i%1000)},
				"year":       {fmt.Sprintf("%d", 1980+(i%40))},
			},
			Content: fmt.Sprintf("revision %d body text %d mentioning subject-%d and theme-%d with shared words",
				revision, i, i%17, i%5),
			MIME: "text/plain",
		})
	}
	return docs
}

// BuildOverheadTable runs E1 over a docs × profiles grid.
func BuildOverheadTable(docCounts, profileCounts []int, rounds int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable("E1 — collection build overhead of alerting (avg over rebuilds)",
		"docs", "profiles", "index", "filter", "overhead %")
	for _, d := range docCounts {
		for _, p := range profileCounts {
			r, err := RunBuildOverhead(d, p, rounds, seed)
			if err != nil {
				return nil, err
			}
			t.AddRow(r.Docs, r.Profiles, r.IndexTime, r.FilterTime, r.OverheadPc)
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// E2 — GDS broadcast scalability (§8 future work, measured here).

// GDSScaleResult is one E2 row.
type GDSScaleResult struct {
	Servers    int
	GDSNodes   int
	Branching  int
	Messages   int64
	MaxHops    int
	MaxLatency time.Duration
	Delivered  int
}

// RunGDSScale builds a cluster of the given size, publishes one event from
// one server and measures flood cost and reach.
func RunGDSScale(servers, branching int, seed int64) (GDSScaleResult, error) {
	gdsNodes := max(1, servers/8)
	c, err := NewCluster(ClusterConfig{Seed: seed, GDSNodes: gdsNodes, GDSBranching: branching})
	if err != nil {
		return GDSScaleResult{}, err
	}
	defer c.Close()
	ctx := context.Background()

	names := make([]string, 0, servers)
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("Srv%04d", i)
		if _, err := c.AddServer(name, i%gdsNodes); err != nil {
			return GDSScaleResult{}, err
		}
		names = append(names, name)
	}
	// Each server gets a subscriber to the broadcast collection so delivery
	// is observable end to end.
	for _, n := range names {
		c.Notifier(n, "u")
		if _, err := c.Service(n).Subscribe("u", profile.MustParse(`collection = "Srv0000.X"`)); err != nil {
			return GDSScaleResult{}, err
		}
	}
	if _, err := c.Server("Srv0000").AddCollection(ctx, collection.Config{Name: "X", Public: true}); err != nil {
		return GDSScaleResult{}, err
	}

	c.TR.ResetStats()
	if _, _, err := c.Server("Srv0000").Build(ctx, "X", syntheticDocs(3, 0)); err != nil {
		return GDSScaleResult{}, err
	}
	c.Settle(ctx)

	st := c.TR.Stats()
	out := GDSScaleResult{
		Servers:   servers,
		GDSNodes:  gdsNodes,
		Branching: branching,
		Messages:  st.Sent,
	}
	for _, n := range names {
		out.Delivered += len(c.Notifications(n, "u"))
	}
	// Hop/latency shape from the per-delivery envelope metadata is not
	// retained by the service; derive the worst case from tree depth.
	depth := 0
	for i := gdsNodes - 1; i > 0; i = (i - 1) / branching {
		depth++
	}
	out.MaxHops = 2 * depth // up to the root and down the far side
	out.MaxLatency = time.Duration(out.MaxHops+2) * time.Millisecond
	return out, nil
}

// GDSScaleTable runs E2 over server counts and branching factors.
func GDSScaleTable(serverCounts, branchings []int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable("E2 — GDS broadcast scalability (one event flooded to all servers)",
		"servers", "gds nodes", "branching", "messages", "delivered", "max hops", "max latency")
	for _, s := range serverCounts {
		for _, b := range branchings {
			r, err := RunGDSScale(s, b, seed)
			if err != nil {
				return nil, err
			}
			t.AddRow(r.Servers, r.GDSNodes, r.Branching, r.Messages, r.Delivered, r.MaxHops, r.MaxLatency)
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// E3 — routing comparison on fragmented networks.

// RoutingComparisonResult is one router's aggregate over a scenario.
type RoutingComparisonResult struct {
	Router        string
	Fragmentation float64
	Score         baseline.Score
	Messages      int
}

// RunRoutingComparison plays the same fragmented-network scenario through
// the hybrid router and the three related-work baselines:
//
//	phase 1: everyone subscribes; every collection publishes.
//	phase 2: some links are cut; a third of the subscriptions cancel
//	         during the outage; links heal; every collection publishes
//	         again (dangling cancellations now bite).
func RunRoutingComparison(servers int, fragmentation float64, seed int64) ([]RoutingComparisonResult, error) {
	mkTopo := func() (*Topology, *Workload) {
		topo := GenerateTopology(TopologyConfig{
			Seed:              seed,
			Servers:           servers,
			SolitaryFraction:  fragmentation,
			ExtraLinkFraction: 0.3,
			Islands:           1 + servers/16,
		})
		w := topo.GenerateWorkload(WorkloadConfig{
			Collections:         servers / 2,
			Subscriptions:       servers * 2,
			EventsPerCollection: 1,
		})
		return topo, w
	}

	routers := []func(net *baseline.Network) baseline.Router{
		func(n *baseline.Network) baseline.Router { return baseline.NewHybrid(n) },
		func(n *baseline.Network) baseline.Router { return baseline.NewGSFlood(n) },
		func(n *baseline.Network) baseline.Router { return baseline.NewProfileFlood(n) },
		func(n *baseline.Network) baseline.Router { return baseline.NewRendezvous(n) },
	}

	var results []RoutingComparisonResult
	for _, mk := range routers {
		// Fresh identical world per router (same seed).
		topo, w := mkTopo()
		r := mk(topo.Net)
		oracle := baseline.NewOracle(topo.Net)
		var total baseline.Score

		for _, sub := range w.Subs {
			r.Subscribe(sub)
			oracle.Subscribe(sub)
		}
		evSeq := 0
		publishAll := func() {
			for _, coll := range w.Collections {
				if !topo.Net.Up(coll.Owner) {
					continue
				}
				evSeq++
				ev := baseline.Event{ID: fmt.Sprintf("e%04d", evSeq), Origin: coll.Owner, Collection: coll.Name}
				total.Add(oracle.ScoreEvent(ev, r.Publish(ev)))
			}
		}
		publishAll()

		// Phase 2: cut ~25% of linked pairs, cancel a third of subs during
		// the outage, heal, publish again.
		cuts := make([][2]string, 0, servers/4)
		for i := 0; i < servers/4; i++ {
			if a, b, ok := topo.RandomLinkedPair(); ok {
				topo.Net.CutLink(a, b)
				cuts = append(cuts, [2]string{a, b})
			}
		}
		for i, sub := range w.Subs {
			if i%3 == 0 {
				r.Unsubscribe(sub.ID)
				oracle.Unsubscribe(sub.ID)
			}
		}
		for _, cut := range cuts {
			topo.Net.HealLink(cut[0], cut[1])
		}
		publishAll()

		results = append(results, RoutingComparisonResult{
			Router:        r.Name(),
			Fragmentation: fragmentation,
			Score:         total,
			Messages:      r.Messages(),
		})
	}
	return results, nil
}

// RoutingComparisonTable runs E3 over fragmentation levels.
func RoutingComparisonTable(servers int, fragmentations []float64, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("E3 — routing correctness on fragmented networks (%d servers; cuts + cancellations mid-run)", servers),
		"router", "solitary frac", "expected", "delivered", "false neg %", "false pos %", "messages")
	for _, f := range fragmentations {
		results, err := RunRoutingComparison(servers, f, seed)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			t.AddRow(r.Router, r.Fragmentation, r.Score.Expected, r.Score.Delivered,
				100*r.Score.FNRate(), 100*r.Score.FPRate(), r.Messages)
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// E5 — auxiliary-profile chains (distributed collections of depth > 1).

// AuxChainResult is one E5 row.
type AuxChainResult struct {
	Depth         int
	Notifications int
	Transforms    int64
	ChainLen      int
	Messages      int64
}

// RunAuxChain builds a chain of super-collections S0.C0 ⊃ S1.C1 ⊃ ... ⊃
// Sd.Cd, subscribes a watcher to the top collection at a separate server,
// rebuilds the leaf, and measures the transform cascade.
func RunAuxChain(depth int, seed int64) (AuxChainResult, error) {
	c, err := NewCluster(ClusterConfig{Seed: seed, GDSNodes: 2, GDSBranching: 2})
	if err != nil {
		return AuxChainResult{}, err
	}
	defer c.Close()
	ctx := context.Background()

	names := make([]string, 0, depth+1)
	for i := 0; i <= depth; i++ {
		name := fmt.Sprintf("H%d", i)
		if _, err := c.AddServer(name, i%2); err != nil {
			return AuxChainResult{}, err
		}
		names = append(names, name)
	}
	// Collections: Hi.Ci with Hi.Ci ⊃ H(i+1).C(i+1).
	for i := 0; i <= depth; i++ {
		cfg := collection.Config{Name: fmt.Sprintf("C%d", i), Public: true}
		if i < depth {
			cfg.Subs = []collection.SubRef{{Host: names[i+1], Name: fmt.Sprintf("C%d", i+1)}}
		}
		if _, err := c.Server(names[i]).AddCollection(ctx, cfg); err != nil {
			return AuxChainResult{}, err
		}
	}
	if _, err := c.AddServer("Watcher", 0); err != nil {
		return AuxChainResult{}, err
	}
	sink := c.Notifier("Watcher", "w")
	if _, err := c.Service("Watcher").Subscribe("w", profile.MustParse(`collection = "H0.C0"`)); err != nil {
		return AuxChainResult{}, err
	}

	c.TR.ResetStats()
	leaf := names[depth]
	if _, _, err := c.Server(leaf).Build(ctx, fmt.Sprintf("C%d", depth), syntheticDocs(2, 0)); err != nil {
		return AuxChainResult{}, err
	}
	c.Settle(ctx)

	out := AuxChainResult{Depth: depth, Notifications: sink.Len(), Messages: c.TR.Stats().Sent}
	for _, n := range sink.All() {
		if l := len(n.Event.Chain); l > out.ChainLen {
			out.ChainLen = l
		}
	}
	var transforms int64
	for _, name := range names {
		transforms += c.Service(name).Stats().Transforms
	}
	out.Transforms = transforms
	return out, nil
}

// AuxChainTable runs E5 over chain depths.
func AuxChainTable(depths []int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable("E5 — auxiliary-profile chains (rebuild at leaf of a depth-d super/sub chain)",
		"depth", "watcher notifs", "transforms", "event chain len", "messages")
	for _, d := range depths {
		r, err := RunAuxChain(d, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(r.Depth, r.Notifications, r.Transforms, r.ChainLen, r.Messages)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// E7 — best-effort flooding under message loss.

// LossResult is one E7 row.
type LossResult struct {
	DropRate      float64
	Servers       int
	Events        int
	Expected      int
	Delivered     int
	DeliveryRatio float64
	DedupHits     int64
}

// RunLossyBroadcast publishes events through a lossy GDS and measures the
// delivery ratio (paper §6: "messages are delivered using best effort").
func RunLossyBroadcast(servers, events int, dropRate float64, seed int64) (LossResult, error) {
	c, names, err := NewTree(seed, servers, 0, nil)
	if err != nil {
		return LossResult{}, err
	}
	defer c.Close()
	ctx := context.Background()
	pub := c.Server(names[0])
	// Subscribe to the per-build summary event only, so expected
	// notifications are exactly one per server per build.
	for _, n := range names {
		c.Notifier(n, "u")
		if _, err := c.Service(n).Subscribe("u",
			profile.MustParse(fmt.Sprintf(`collection = "%s.X" AND event.type = "collection-rebuilt"`, names[0]))); err != nil {
			return LossResult{}, err
		}
	}
	if _, err := pub.AddCollection(ctx, collection.Config{Name: "X", Public: true}); err != nil {
		return LossResult{}, err
	}
	// Build once reliably to initialise, then inject loss. Settle so the
	// initialisation notifications land before the counters reset.
	if _, _, err := pub.Build(ctx, "X", syntheticDocs(1, 0)); err != nil {
		return LossResult{}, err
	}
	c.Settle(ctx)
	for _, n := range names {
		c.Notifier(n, "u").Reset()
	}
	c.Inject.SetRules(transport.FaultRule{DropRate: dropRate})
	for e := 0; e < events; e++ {
		if _, _, err := pub.Build(ctx, "X", syntheticDocs(1, e+1)); err != nil {
			return LossResult{}, err
		}
	}
	c.Inject.ClearRules()
	c.Settle(ctx)

	out := LossResult{DropRate: dropRate, Servers: servers, Events: events}
	out.Expected = (servers) * events // every server incl. origin notifies its subscriber
	for _, n := range names {
		out.Delivered += c.Notifier(n, "u").Len()
	}
	if out.Expected > 0 {
		out.DeliveryRatio = float64(out.Delivered) / float64(out.Expected)
	}
	for _, node := range c.Nodes {
		out.DedupHits += node.Snapshot().DedupHits
	}
	return out, nil
}

// LossTable runs E7 over drop rates, averaging several seeds per rate to
// smooth the single-run variance of probabilistic loss.
func LossTable(servers, events int, dropRates []float64, seed int64) (*metrics.Table, error) {
	const seedsPerRate = 5
	t := metrics.NewTable("E7 — best-effort GDS flooding under message loss (avg of 5 seeds)",
		"drop rate", "servers", "events", "expected notifs", "delivered", "ratio")
	for _, p := range dropRates {
		var expected, delivered int
		for s := int64(0); s < seedsPerRate; s++ {
			r, err := RunLossyBroadcast(servers, events, p, seed+s)
			if err != nil {
				return nil, err
			}
			expected += r.Expected
			delivered += r.Delivered
		}
		ratio := 0.0
		if expected > 0 {
			ratio = float64(delivered) / float64(expected)
		}
		t.AddRow(p, servers, events, expected/seedsPerRate, delivered/seedsPerRate, ratio)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// E6 — partition recovery (delayed, not lost).

// PartitionRecoveryResult is one E6 measurement.
type PartitionRecoveryResult struct {
	Cycles          int
	DuringPartition int // notifications that arrived while cut (must be 0)
	AfterHeal       int // notifications delivered after heal+flush
	QueuedPeak      int
}

// RunPartitionRecovery repeatedly partitions the super/sub link while the
// sub-collection rebuilds, then heals and flushes.
func RunPartitionRecovery(cycles int, seed int64) (PartitionRecoveryResult, error) {
	c, err := NewCluster(ClusterConfig{Seed: seed, GDSNodes: 2, GDSBranching: 2})
	if err != nil {
		return PartitionRecoveryResult{}, err
	}
	defer c.Close()
	ctx := context.Background()
	_, _ = c.AddServer("Hamilton", 0)
	_, _ = c.AddServer("London", 1)
	if _, err := c.Server("Hamilton").AddCollection(ctx, collection.Config{
		Name: "D", Public: true, Subs: []collection.SubRef{{Host: "London", Name: "E"}},
	}); err != nil {
		return PartitionRecoveryResult{}, err
	}
	if _, err := c.Server("London").AddCollection(ctx, collection.Config{Name: "E", Public: true}); err != nil {
		return PartitionRecoveryResult{}, err
	}
	// One expected notification per build cycle: match summary events only.
	sink := c.Notifier("Hamilton", "alice")
	if _, err := c.Service("Hamilton").Subscribe("alice", profile.MustParse(
		`collection = "Hamilton.D" AND (event.type = "collection-built" OR event.type = "collection-rebuilt")`)); err != nil {
		return PartitionRecoveryResult{}, err
	}

	var out PartitionRecoveryResult
	out.Cycles = cycles
	for i := 0; i < cycles; i++ {
		c.PartitionServers("Hamilton", "London")
		if _, _, err := c.Server("London").Build(ctx, "E", syntheticDocs(2, i)); err != nil {
			return out, err
		}
		c.Settle(ctx)
		out.DuringPartition += sink.Len()
		if q := c.Service("London").PendingForwards(); q > out.QueuedPeak {
			out.QueuedPeak = q
		}
		c.HealServers("Hamilton", "London")
		c.FlushRetries(ctx)
		c.Settle(ctx)
		out.AfterHeal += sink.Len()
		sink.Reset()
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E8 — continuous search equivalence.

// ContinuousSearchResult summarises E8.
type ContinuousSearchResult struct {
	Docs          int
	SearchHits    int
	AlertedDocs   int
	Agreement     bool
	WatchAlerts   int
	WatchExpected int
}

// RunContinuousSearch verifies that a search query converted into a profile
// alerts exactly the documents the same query retrieves interactively.
func RunContinuousSearch(docs int, seed int64) (ContinuousSearchResult, error) {
	c, err := NewCluster(ClusterConfig{Seed: seed, GDSNodes: 1, GDSBranching: 2})
	if err != nil {
		return ContinuousSearchResult{}, err
	}
	defer c.Close()
	ctx := context.Background()
	_, _ = c.AddServer("Host", 0)
	if _, err := c.Server("Host").AddCollection(ctx, collection.Config{Name: "Col", Public: true}); err != nil {
		return ContinuousSearchResult{}, err
	}
	const query = "subject-3 AND theme-1"
	coll := event.QName{Host: "Host", Collection: "Col"}

	sink := c.Notifier("Host", "searcher")
	if _, err := c.Service("Host").SubscribeQuery("searcher", coll, "", query); err != nil {
		return ContinuousSearchResult{}, err
	}
	set := syntheticDocs(docs, 0)
	if _, _, err := c.Server("Host").Build(ctx, "Col", set); err != nil {
		return ContinuousSearchResult{}, err
	}
	c.Settle(ctx)

	// Interactive search over the now-built collection.
	recep := c.NewReceptionist("r", "Host")
	sr, err := recep.Search(ctx, "Host", "Col", query, "", 0, false)
	if err != nil {
		return ContinuousSearchResult{}, err
	}
	searchIDs := make(map[string]bool, len(sr.Hits))
	for _, h := range sr.Hits {
		searchIDs[h.DocID] = true
	}
	alerted := make(map[string]bool)
	for _, n := range sink.All() {
		for _, id := range n.DocIDs {
			alerted[id] = true
		}
	}
	agree := len(searchIDs) == len(alerted)
	for id := range searchIDs {
		if !alerted[id] {
			agree = false
		}
	}

	// Watch-this: watch 5 specific docs, rebuild with 2 of them changed.
	watchIDs := []string{"doc00001", "doc00003", "doc00005", "doc00007", "doc00009"}
	watch := c.Notifier("Host", "watcher")
	if _, err := c.Service("Host").WatchDocuments("watcher", coll, watchIDs); err != nil {
		return ContinuousSearchResult{}, err
	}
	set2 := syntheticDocs(docs, 0)
	set2[1].Content += " changed"
	set2[3].Content += " changed"
	if _, _, err := c.Server("Host").Build(ctx, "Col", set2); err != nil {
		return ContinuousSearchResult{}, err
	}
	c.Settle(ctx)
	watchedAlerted := make(map[string]bool)
	for _, n := range watch.All() {
		for _, id := range n.DocIDs {
			watchedAlerted[id] = true
		}
	}
	return ContinuousSearchResult{
		Docs:          docs,
		SearchHits:    len(searchIDs),
		AlertedDocs:   len(alerted),
		Agreement:     agree,
		WatchAlerts:   len(watchedAlerted),
		WatchExpected: 2,
	}, nil
}
