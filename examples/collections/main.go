// Collections over a GDS tree — the paper's Figures 2 and 3 on one cluster.
//
// Seven directory nodes form a stratum tree; four Greenstone servers
// (Hamilton, London, Berlin, Tokyo) register at different nodes.
//
// Figure 2, federated collections: users subscribe at their own server; a
// collection built at Hamilton floods through the directory tree and every
// interested user is notified locally, wherever their profile lives.
//
// Figure 3, distributed collections: Hamilton.D references London.E as a
// sub-collection, so registering D forwards an auxiliary profile to London.
// When London rebuilds E, the auxiliary profile matches; London forwards the
// event to Hamilton, which renames it to Hamilton.D and re-broadcasts via
// the GDS — so a subscriber of Hamilton.D at Berlin is notified, never
// knowing E exists.
//
//	go run ./examples/collections
package main

import (
	"context"
	"fmt"
	"os"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "collections: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	// Seven GDS nodes in a binary stratum tree (Figure 2 has nodes on
	// strata 1..3); deterministic in-memory network.
	cluster, err := sim.NewCluster(sim.ClusterConfig{Seed: 2005, GDSNodes: 7, GDSBranching: 2})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Servers register at different directory nodes (leaves and inner).
	placements := map[string]int{"Hamilton": 3, "London": 6, "Berlin": 4, "Tokyo": 2}
	for name, node := range placements {
		if _, err := cluster.AddServer(name, node); err != nil {
			return err
		}
	}
	for _, n := range cluster.Nodes {
		info := n.Snapshot()
		fmt.Printf("gds node %-5s stratum %d  servers=%v\n", info.ID, info.Stratum, info.Servers)
	}
	if err := federated(ctx, cluster); err != nil {
		return err
	}
	return distributed(ctx, cluster)
}

// federated is Figure 2: a build at Hamilton reaches subscribers at three
// other servers through the directory flood.
func federated(ctx context.Context, cluster *sim.Cluster) error {
	// Users subscribe at their local servers to Hamilton's collection.
	subscribers := []string{"London", "Berlin", "Tokyo"}
	for _, server := range subscribers {
		client := "user@" + server
		cluster.Notifier(server, client)
		if _, err := cluster.Service(server).Subscribe(client, profile.MustParse(
			`collection = "Hamilton.Theses" AND event.type = "collection-built"`)); err != nil {
			return err
		}
	}

	// Hamilton builds a new collection; the event floods via the GDS.
	if _, err := cluster.Server("Hamilton").AddCollection(ctx, collection.Config{
		Name: "Theses", Title: "Thesis Archive", Public: true,
	}); err != nil {
		return err
	}
	docs := []*collection.Document{
		{ID: "t1", Metadata: map[string][]string{"dc.Title": {"A Thesis on Alerting"}}},
		{ID: "t2", Metadata: map[string][]string{"dc.Title": {"Directory Services"}}},
	}
	if _, _, err := cluster.Server("Hamilton").Build(ctx, "Theses", docs); err != nil {
		return err
	}
	cluster.Settle(ctx)

	fmt.Println("\nafter Hamilton built Hamilton.Theses:")
	for _, server := range subscribers {
		client := "user@" + server
		for _, n := range cluster.Notifications(server, client) {
			fmt.Printf("  %-14s notified: %s about %s (%d docs)\n",
				client, n.Event.Type, n.Event.Collection, len(n.Event.Docs))
		}
	}
	stats := cluster.TR.Stats()
	fmt.Printf("\nnetwork cost: %d messages total (%d broadcast relays, %d event deliveries)\n",
		stats.Sent, stats.PerType["gds.broadcast"], stats.PerType["gs.event"])

	// Name resolution across the tree: London finds Tokyo without knowing
	// its address (paper §4.1's DNS-like naming, climbing to the root and
	// delegating).
	resolved, err := cluster.Resolve(ctx, "London", "Tokyo")
	if err != nil {
		return err
	}
	fmt.Printf("London resolved Tokyo via the directory: %s\n", resolved)
	return nil
}

// distributed is Figure 3: a rebuild of London.E reaches a subscriber of
// Hamilton.D through the auxiliary profile London holds for Hamilton.
func distributed(ctx context.Context, cluster *sim.Cluster) error {
	// London.E: an ordinary public collection.
	if _, err := cluster.Server("London").AddCollection(ctx, collection.Config{
		Name: "E", Title: "European Reports", Public: true,
	}); err != nil {
		return err
	}
	// Hamilton.D: distributed — includes London.E as a sub-collection.
	// Registering it forwards the auxiliary profile to London (§4.2).
	if _, err := cluster.Server("Hamilton").AddCollection(ctx, collection.Config{
		Name: "D", Title: "Dissertations", Public: true,
		Subs: []collection.SubRef{{Host: "London", Name: "E"}},
	}); err != nil {
		return err
	}
	fmt.Printf("\nauxiliary profiles installed at London: %d\n", cluster.Service("London").AuxProfileCount())
	fmt.Printf("auxiliary profiles forwarded by Hamilton: %v\n", cluster.Service("Hamilton").ForwardedAuxIDs())

	// carol at Berlin watches Hamilton.D without knowing London exists.
	carol := cluster.Notifier("Berlin", "carol")
	if _, err := cluster.Service("Berlin").Subscribe("carol",
		profile.MustParse(`collection = "Hamilton.D"`)); err != nil {
		return err
	}

	// London rebuilds E.
	docs := []*collection.Document{
		{ID: "e1", Metadata: map[string][]string{"dc.Title": {"Report 2005/1"}},
			Content: "the first european report"},
	}
	if _, _, err := cluster.Server("London").Build(ctx, "E", docs); err != nil {
		return err
	}
	cluster.Settle(ctx)

	fmt.Printf("\nafter London rebuilt London.E, carol@Berlin received %d notification(s):\n", carol.Len())
	for _, n := range carol.All() {
		ev := n.Event
		fmt.Printf("  event %s\n", ev.ID)
		fmt.Printf("    type:       %s\n", ev.Type)
		fmt.Printf("    collection: %s   <- renamed for the super-collection\n", ev.Collection)
		fmt.Printf("    origin:     %s   <- where the build actually ran\n", ev.Origin)
		fmt.Printf("    chain:      %v\n", ev.Chain)
	}
	fmt.Printf("\nHamilton transforms performed: %d\n", cluster.Service("Hamilton").Stats().Transforms)

	// Retrieval side: searching Hamilton.D with sub-collection expansion
	// transparently includes London.E's documents (paper §3).
	recep := cluster.NewReceptionist("recep-I", "Hamilton")
	res, err := recep.Search(ctx, "Hamilton", "D", "european", "", 10, true)
	if err != nil {
		return err
	}
	fmt.Printf("\ndistributed search in Hamilton.D for \"european\": %d hit(s)\n", res.Total)
	for _, h := range res.Hits {
		fmt.Printf("  %s from %s\n", h.DocID, h.Collection)
	}
	return nil
}
