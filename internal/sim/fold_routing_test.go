package sim

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/filter"
	"github.com/gsalert/gsalert/internal/profile"
)

// foldProfiles name collections and metadata values through members of
// Unicode simple-fold orbits (ſ/s/S, the Kelvin sign/k, ς/σ/Σ) and other
// non-ASCII letters. The evaluator calls each orbit one rune, so every
// routing mode must deliver them as a single server would.
var foldProfiles = []string{
	`collection = "S000.Newſ"`,
	`collection = "s000.news" AND dc.Creator = "ſmith"`,
	`collection = "S000.ÉMILE"`,
	`collection in ("S000.NEWſ", "S000.Other") AND dc.Title contains "σοφ"`,
	`dc.Creator = "SMITH"`,
	`collection = "S000.Émile" AND event.type = "collection-rebuilt"`,
	"collection = \"S000.\u212aelvin\"", // the Kelvin sign
	`collection = "S000.Émile" AND dc.Creator = "Jones"`,
	`collection = "S000.émile" AND text = "ΣΟΦΟΣ"`,
}

func foldDocs(round int) []*collection.Document {
	docs := []*collection.Document{
		{ID: "d1", Metadata: map[string][]string{"dc.Creator": {"Smith"}, "dc.Title": {"ΣΟΦΟΣ"}}, Content: "σοφος"},
		{ID: "d2", Metadata: map[string][]string{"dc.Creator": {"ſmith"}, "dc.Title": {"Kelvin"}}, Content: fmt.Sprintf("revision %d", round)},
		{ID: "d3", Metadata: map[string][]string{"dc.Creator": {"Émile"}, "dc.Title": {"σοφος"}}, Content: "Émile"},
	}
	return docs[:2+round]
}

// TestRoutingModesAgreeOnFolds runs one workload in broadcast, multicast and
// content mode and holds each to the notifications a single-server Naive
// matcher predicts for the same profiles and events: routing is an
// optimisation, so no mode may lose (or add) a delivery, whatever the case
// of a collection name or a metadata value.
func TestRoutingModesAgreeOnFolds(t *testing.T) {
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		t.Run(mode.String(), func(t *testing.T) {
			c, names, err := NewTree(1, 8, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			naive := filter.NewNaive()
			for i, src := range foldProfiles {
				server, client := names[1+i%(len(names)-1)], fmt.Sprintf("c%d", i)
				c.Notifier(server, client)
				p := profile.NewUser(fmt.Sprintf("p%d", i), client, server, profile.MustParse(src))
				if err := c.Service(server).SubscribeProfile(p); err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				if err := naive.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			var want, got []string
			for _, coll := range []string{"NewS", "Émile", "Kelvin"} {
				if _, err := c.Server(names[0]).AddCollection(ctx, collection.Config{Name: coll, Public: true}); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ {
					res, _, err := c.Server(names[0]).Build(ctx, coll, foldDocs(round))
					if err != nil {
						t.Fatal(err)
					}
					for _, ev := range res.Events {
						for _, m := range naive.Match(ev) {
							want = append(want, foldDelivery(m.Profile.HomeServer, m.Profile.Owner, ev, m.DocIDs))
						}
					}
				}
			}
			c.Settle(ctx)
			for _, server := range names {
				for i := range foldProfiles {
					for _, n := range c.Notifications(server, fmt.Sprintf("c%d", i)) {
						got = append(got, foldDelivery(server, n.Client, n.Event, n.DocIDs))
					}
				}
			}
			slices.Sort(want)
			slices.Sort(got)
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Fatalf("delivered %d notifications, a single Naive matcher predicts %d\ngot:  %q\nwant: %q",
					len(got), len(want), got, want)
			}
		})
	}
}

func foldDelivery(server, client string, ev *event.Event, docIDs []string) string {
	return fmt.Sprintf("%s/%s %s %s %v", server, client, ev.Type, ev.Collection, docIDs)
}
