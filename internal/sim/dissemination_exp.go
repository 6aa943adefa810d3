package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/profile"
)

// E9 and E12 — the dissemination ladder flood → multicast → content, one
// scenario at two parameter sets. The paper's primary design floods every
// event to every server; §6 also names multicast as a GDS capability. E9
// quantifies that trade: with interest-scoped multicast groups, message
// cost follows the number of interested servers instead of the network
// size, at the price of group-membership state in the directory — but its
// granularity stops at the collection. Content routing (E12) advertises
// full profile digests (docs/ROUTING.md), so the directory can also prune
// on event type: a rebuild's per-document events never travel towards
// servers whose profiles only watch rebuild summaries. The scenario
// publishes builds that emit several event types and reports message cost,
// delivered matches and mean delivery latency for one mode.

// DisseminationResult is one E9 or E12 row.
type DisseminationResult struct {
	Mode          string
	Servers       int
	Interested    int
	Events        int // events published per measured build round
	Rounds        int
	Messages      int64
	Notifications int
	// AvgLatency is the mean virtual transit latency of event envelopes
	// received by the interested servers.
	AvgLatency time.Duration
}

// RunDissemination publishes `rounds` rebuilds (each emitting a rebuild
// summary plus per-document events) through a tree of the given size in
// which only `interested` servers subscribe — and only to the rebuild
// summaries. Returns message cost, notification count and mean delivery
// latency for one routing mode.
func RunDissemination(servers, interested, rounds int, mode core.RoutingMode, seed int64) (DisseminationResult, error) {
	c, names, err := NewTree(seed, servers, mode, nil)
	if err != nil {
		return DisseminationResult{}, err
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Server(names[0]).AddCollection(ctx, collection.Config{Name: "X", Public: true}); err != nil {
		return DisseminationResult{}, err
	}
	for i := 1; i <= interested && i < servers; i++ {
		c.Notifier(names[i], "u")
		if _, err := c.Service(names[i]).Subscribe("u", profile.MustParse(
			fmt.Sprintf(`collection = "%s.X" AND event.type = "collection-rebuilt"`, names[0]))); err != nil {
			return DisseminationResult{}, err
		}
	}
	// Initial build outside the measured window (emits collection-built,
	// which nobody subscribed to).
	if _, _, err := c.Server(names[0]).Build(ctx, "X", syntheticDocs(20, 0)); err != nil {
		return DisseminationResult{}, err
	}
	c.Settle(ctx)
	c.TR.ResetStats()
	eventsPerRound := 0
	for r := 0; r < rounds; r++ {
		// Each measured rebuild changes one doc in twenty: the build emits
		// a collection-rebuilt summary plus a documents-changed event.
		res, _, err := c.Server(names[0]).Build(ctx, "X", syntheticDocs(20, r+1))
		if err != nil {
			return DisseminationResult{}, err
		}
		eventsPerRound = len(res.Events)
	}
	c.Settle(ctx)

	out := DisseminationResult{
		Mode:       mode.String(),
		Servers:    servers,
		Interested: interested,
		Events:     eventsPerRound,
		Rounds:     rounds,
		Messages:   c.TR.Stats().Sent,
	}
	var latencySum time.Duration
	var received int64
	for i := 1; i <= interested && i < servers; i++ {
		out.Notifications += c.Notifier(names[i], "u").Len()
		st := c.Service(names[i]).Stats()
		latencySum += st.ReceiveLatency
		received += st.EventsReceived
	}
	if received > 0 {
		out.AvgLatency = latencySum / time.Duration(received)
	}
	return out, nil
}

// MulticastAblationTable runs E9 over interest levels for broadcast and
// multicast, checking both deliver every expected notification.
func MulticastAblationTable(servers, events int, interestedLevels []int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("E9 — dissemination ablation: broadcast vs interest-scoped multicast (%d servers, %d events)", servers, events),
		"mode", "interested servers", "messages", "msgs/event", "notifications")
	for _, k := range interestedLevels {
		for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast} {
			r, err := RunDissemination(servers, k, events, mode, seed)
			if err != nil {
				return nil, err
			}
			if want := k * events; r.Notifications != want {
				return nil, fmt.Errorf("sim: E9 %s k=%d delivered %d notifications, want %d — modes are not equivalent",
					r.Mode, k, r.Notifications, want)
			}
			t.AddRow(r.Mode, r.Interested, r.Messages, float64(r.Messages)/float64(events), r.Notifications)
		}
	}
	return t, nil
}

// ContentRoutingTable runs E12 over all three modes, checking that every
// mode delivers the full expected notification count (the modes are
// optimisations, never correctness changes).
func ContentRoutingTable(servers, interested, rounds int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("E12 — dissemination ladder: flood vs multicast vs content routing (%d servers, %d interested, %d rebuild rounds)",
			servers, interested, rounds),
		"mode", "events/round", "messages", "msgs/round", "notifications", "avg latency")
	modes := []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent}
	var flood, content DisseminationResult
	for _, mode := range modes {
		r, err := RunDissemination(servers, interested, rounds, mode, seed)
		if err != nil {
			return nil, err
		}
		want := min(interested, servers-1) * rounds
		if r.Notifications != want {
			return nil, fmt.Errorf("sim: E12 %s delivered %d notifications, want %d — modes are not equivalent",
				r.Mode, r.Notifications, want)
		}
		switch mode {
		case core.RouteBroadcast:
			flood = r
		case core.RouteContent:
			content = r
		}
		t.AddRow(r.Mode, r.Events, r.Messages, float64(r.Messages)/float64(rounds), r.Notifications, r.AvgLatency)
	}
	if content.Messages >= flood.Messages {
		return nil, fmt.Errorf("sim: E12 content routing used %d messages, flooding %d — covering tables saved nothing",
			content.Messages, flood.Messages)
	}
	return t, nil
}
