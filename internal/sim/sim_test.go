package sim

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/transport"
)

func TestGenerateTopologyShape(t *testing.T) {
	topo := GenerateTopology(TopologyConfig{
		Seed:              1,
		Servers:           40,
		SolitaryFraction:  0.5,
		ExtraLinkFraction: 0.2,
		Islands:           2,
	})
	if len(topo.Servers) != 40 {
		t.Fatalf("servers = %d", len(topo.Servers))
	}
	if len(topo.Solitary) != 20 {
		t.Errorf("solitary = %d, want 20", len(topo.Solitary))
	}
	if len(topo.Linked) != 20 {
		t.Errorf("linked = %d, want 20", len(topo.Linked))
	}
	// Solitary servers really have no neighbours.
	for _, s := range topo.Solitary {
		if n := topo.Net.Neighbors(s); len(n) != 0 {
			t.Errorf("solitary %s has neighbours %v", s, n)
		}
	}
	// Flooding from a linked server stays within its island: it must not
	// reach every linked server when there are 2 islands.
	reached, _ := topo.Net.FloodFrom(topo.Linked[0])
	if len(reached) == 0 || len(reached) >= len(topo.Linked) {
		t.Errorf("island flood reached %d of %d linked servers", len(reached), len(topo.Linked))
	}
}

func TestGenerateTopologyDeterministic(t *testing.T) {
	a := GenerateTopology(TopologyConfig{Seed: 7, Servers: 30, SolitaryFraction: 0.3, Islands: 2})
	b := GenerateTopology(TopologyConfig{Seed: 7, Servers: 30, SolitaryFraction: 0.3, Islands: 2})
	if strings.Join(a.Solitary, ",") != strings.Join(b.Solitary, ",") {
		t.Error("same seed produced different solitary sets")
	}
	if a.Net.String() != b.Net.String() {
		t.Errorf("topologies differ: %s vs %s", a.Net, b.Net)
	}
}

func TestGenerateWorkload(t *testing.T) {
	topo := GenerateTopology(TopologyConfig{Seed: 3, Servers: 10})
	w := topo.GenerateWorkload(WorkloadConfig{Collections: 5, Subscriptions: 20})
	if len(w.Collections) != 5 || len(w.Subs) != 20 {
		t.Fatalf("workload = %d colls, %d subs", len(w.Collections), len(w.Subs))
	}
	collNames := make(map[string]bool, len(w.Collections))
	for _, c := range w.Collections {
		if !strings.HasPrefix(c.Name, c.Owner+".") {
			t.Errorf("collection %s not owned by %s", c.Name, c.Owner)
		}
		collNames[c.Name] = true
	}
	for _, s := range w.Subs {
		if !collNames[s.Collection] {
			t.Errorf("sub %s references unknown collection %s", s.ID, s.Collection)
		}
	}
}

func TestRunBuildOverhead(t *testing.T) {
	// A realistic point: a 1000-document collection with 100 profiles.
	r, err := RunBuildOverhead(1000, 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.IndexTime <= 0 {
		t.Error("index time not measured")
	}
	if r.FilterTime < 0 {
		t.Error("negative filter time")
	}
	// The headline claim (§8): filtering extends the build process
	// insignificantly — well under the indexing cost itself.
	if r.OverheadPc > 50 {
		t.Errorf("filter overhead %0.1f%% of build time — claim violated", r.OverheadPc)
	}
}

func TestRunGDSScale(t *testing.T) {
	r, err := RunGDSScale(20, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every server except the origin must be notified, plus the origin's
	// own local subscriber: 20 total.
	if r.Delivered != 20 {
		t.Errorf("delivered = %d, want 20", r.Delivered)
	}
	if r.Messages <= 0 {
		t.Error("no messages counted")
	}
}

func TestRunGDSScaleLinearity(t *testing.T) {
	small, err := RunGDSScale(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunGDSScale(64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.Messages) / float64(small.Messages)
	// 4x servers should cost ~4x messages (within generous slack: the GDS
	// node count also grows).
	if ratio < 2.5 || ratio > 6.5 {
		t.Errorf("message growth ratio = %0.2f for 4x servers (small=%d big=%d)",
			ratio, small.Messages, big.Messages)
	}
}

func TestRunRoutingComparisonShape(t *testing.T) {
	results, err := RunRoutingComparison(48, 0.6, 11)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RoutingComparisonResult{}
	for _, r := range results {
		byName[r.Router] = r
	}
	hybrid := byName["hybrid-gds"]
	gsflood := byName["gs-flood"]
	pflood := byName["profile-flood"]

	// The paper's claims: the hybrid design produces no false positives or
	// negatives even on fragmented networks...
	if hybrid.Score.FalseNegatives != 0 || hybrid.Score.FalsePositives != 0 {
		t.Errorf("hybrid score = %+v", hybrid.Score)
	}
	// ...while GS flooding misses subscribers on disconnected fragments...
	if gsflood.Score.FalseNegatives == 0 {
		t.Error("gs-flood had no false negatives on a fragmented network")
	}
	if gsflood.Score.FNRate() <= hybrid.Score.FNRate() {
		t.Error("gs-flood should be strictly worse than hybrid")
	}
	// ...and profile flooding both misses (unreachable replicas) and keeps
	// notifying for cancelled profiles (dangling).
	if pflood.Score.FalseNegatives == 0 {
		t.Error("profile-flood had no false negatives")
	}
	_ = pflood.Score.FalsePositives // may be 0 on some seeds; asserted in dedicated test below
}

func TestRoutingComparisonDanglingAcrossSeeds(t *testing.T) {
	// Across several seeds, profile flooding must exhibit dangling-profile
	// false positives somewhere; the hybrid never may.
	foundFP := false
	for seed := int64(1); seed <= 8; seed++ {
		results, err := RunRoutingComparison(48, 0.4, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Router == "hybrid-gds" && (r.Score.FalsePositives != 0 || r.Score.FalseNegatives != 0) {
				t.Fatalf("seed %d: hybrid imperfect: %+v", seed, r.Score)
			}
			if r.Router == "profile-flood" && r.Score.FalsePositives > 0 {
				foundFP = true
			}
		}
	}
	if !foundFP {
		t.Error("profile flooding never produced dangling false positives across 8 seeds")
	}
}

func TestRunAuxChain(t *testing.T) {
	for _, depth := range []int{1, 3} {
		r, err := RunAuxChain(depth, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r.Notifications != 1 {
			t.Errorf("depth %d: notifications = %d, want 1", depth, r.Notifications)
		}
		if int(r.Transforms) != depth {
			t.Errorf("depth %d: transforms = %d", depth, r.Transforms)
		}
		if r.ChainLen != depth+1 {
			t.Errorf("depth %d: chain len = %d, want %d", depth, r.ChainLen, depth+1)
		}
	}
}

func TestRunLossyBroadcast(t *testing.T) {
	// Lossless: perfect delivery.
	r0, err := RunLossyBroadcast(12, 5, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r0.DeliveryRatio != 1.0 {
		t.Errorf("lossless ratio = %f", r0.DeliveryRatio)
	}
	// Lossy: strictly less.
	r1, err := RunLossyBroadcast(12, 5, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DeliveryRatio >= 1.0 {
		t.Errorf("lossy ratio = %f", r1.DeliveryRatio)
	}
	if r1.Delivered == 0 {
		t.Error("nothing delivered at 30% loss — implausible")
	}
}

func TestRunPartitionRecovery(t *testing.T) {
	r, err := RunPartitionRecovery(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r.DuringPartition != 0 {
		t.Errorf("notifications during partition = %d", r.DuringPartition)
	}
	if r.AfterHeal != 3 {
		t.Errorf("after heal = %d, want 3 (one per cycle)", r.AfterHeal)
	}
	if r.QueuedPeak == 0 {
		t.Error("nothing was ever queued")
	}
}

func TestRunContinuousSearch(t *testing.T) {
	r, err := RunContinuousSearch(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Agreement {
		t.Errorf("search/alert disagreement: search=%d alerted=%d", r.SearchHits, r.AlertedDocs)
	}
	if r.SearchHits == 0 {
		t.Error("query matched nothing — workload broken")
	}
	if r.WatchAlerts != r.WatchExpected {
		t.Errorf("watch alerts = %d, want %d", r.WatchAlerts, r.WatchExpected)
	}
}

func TestClusterAddServerErrors(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 1, GDSNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddServer("A", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddServer("A", 0); err == nil {
		t.Error("duplicate server accepted")
	}
	if _, err := c.AddServer("B", 99); err == nil {
		t.Error("bad node index accepted")
	}
}

// TestClusterDeliversOnlyOnSettle pins the driven simulation: a cluster
// server's pipeline runs no wall-clock flush, so a published notification
// waits out several default flush intervals undelivered and arrives on
// Settle.
func TestClusterDeliversOnlyOnSettle(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 1, GDSNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.AddServer("A", 0); err != nil {
		t.Fatal(err)
	}
	sink := c.Notifier("A", "u")
	if _, err := c.Service("A").Subscribe("u", profile.MustParse(`collection = "A.D" AND event.type = "collection-built"`)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Server("A").AddCollection(ctx, collection.Config{Name: "D", Public: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Server("A").Build(ctx, "D", syntheticDocs(2, 0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * delivery.DefaultFlushInterval)
	if n := sink.Len(); n != 0 {
		t.Fatalf("%d notifications delivered before Settle", n)
	}
	c.Settle(ctx)
	if n := sink.Len(); n != 1 {
		t.Fatalf("after Settle the sink holds %d notifications, want 1", n)
	}
}

// TestStandbyStreamGoesThroughInjector pins the injector-bypass fix: the
// replica pair AddStandby assembles sends over Cluster.Net, so a fault rule
// armed on the standby's stream address severs the stream (the hand-built
// E14/E18 pairs sent over the raw TR and never saw it), and the standby
// resyncs by snapshot once the rule is cleared.
func TestStandbyStreamGoesThroughInjector(t *testing.T) {
	c, names, err := NewTree(1, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	primary := names[0]
	recv, err := c.AddStandby(primary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Join(ctx); err != nil {
		t.Fatal(err)
	}

	c.Inject.SetRules(transport.FaultRule{To: ReplAddr(primary + "b"), DropRate: 1})
	if _, err := c.Service(primary).Subscribe("u", profile.MustParse(`collection = "S001.X"`)); err != nil {
		t.Fatal(err)
	}
	if c.Inject.Stats().Dropped == 0 {
		t.Fatal("a rule armed on the standby's stream address dropped nothing — the pair bypasses the injector")
	}
	if got := recv.ReplicaStats().Resyncs; got != 0 {
		t.Fatalf("resyncs = %d while the stream is still cut", got)
	}

	c.Inject.ClearRules()
	if err := recv.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if got := recv.ReplicaStats().Resyncs; got < 1 {
		t.Fatalf("resyncs = %d after the heal, want >= 1 (the standby missed a record)", got)
	}
}

func TestTreeDepth(t *testing.T) {
	cases := []struct{ i, b, want int }{
		{0, 2, 0}, {1, 2, 1}, {2, 2, 1}, {3, 2, 2}, {6, 2, 2}, {7, 2, 3},
		{0, 4, 0}, {4, 4, 1}, {5, 4, 2},
	}
	for _, c := range cases {
		if got := treeDepth(c.i, c.b); got != c.want {
			t.Errorf("treeDepth(%d, %d) = %d, want %d", c.i, c.b, got, c.want)
		}
	}
}

func TestRunDeliveryRecovery(t *testing.T) {
	r, err := RunDeliveryRecovery(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveDelivered != 1 {
		t.Errorf("live delivered = %d, want 1", r.LiveDelivered)
	}
	if r.ParkedWhileOffline != 4 {
		t.Errorf("parked while offline = %d, want 4", r.ParkedWhileOffline)
	}
	if r.DrainedOnReconnect != 4 {
		t.Errorf("drained on reconnect = %d, want 4 (delayed, not lost)", r.DrainedOnReconnect)
	}
}

func TestRunDeliveryThroughput(t *testing.T) {
	// Smoke-check both modes deliver everything; relative speed is the
	// benchmark suite's business, correctness is this test's.
	sync, err := RunDeliveryThroughput(200, 8, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Notifications != 200 || sync.Mode != "sync" {
		t.Errorf("sync result = %+v", sync)
	}
	piped, err := RunDeliveryThroughput(200, 8, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if piped.Notifications != 200 {
		t.Errorf("pipeline result = %+v", piped)
	}
	if piped.Batches >= 200 {
		t.Errorf("batches = %d for 200 notifs — batching not amortising", piped.Batches)
	}
}

func TestRunContentRoutingAcceptance(t *testing.T) {
	// The E12 acceptance bar: on a tree of ≥ 8 servers, content routing
	// delivers at least the multicast-mode match count with strictly fewer
	// total GDS messages than flooding.
	const servers, interested, rounds = 12, 3, 4
	results := make(map[string]DisseminationResult, 3)
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		r, err := RunDissemination(servers, interested, rounds, mode, 2005)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results[r.Mode] = r
	}
	want := interested * rounds
	for mode, r := range results {
		if r.Notifications != want {
			t.Errorf("%s delivered %d notifications, want %d", mode, r.Notifications, want)
		}
		if r.AvgLatency <= 0 {
			t.Errorf("%s reported no delivery latency", mode)
		}
	}
	if c, m := results["content"], results["multicast"]; c.Notifications < m.Notifications {
		t.Errorf("content delivered %d < multicast %d", c.Notifications, m.Notifications)
	}
	if c, f := results["content"], results["broadcast"]; c.Messages >= f.Messages {
		t.Errorf("content used %d messages, flooding %d — want strictly fewer", c.Messages, f.Messages)
	}
	// Content also beats collection-granular multicast on this workload:
	// the per-document events of each rebuild are pruned by event type.
	if c, m := results["content"], results["multicast"]; c.Messages >= m.Messages {
		t.Errorf("content used %d messages, multicast %d — type pruning saved nothing", c.Messages, m.Messages)
	}
}

func TestRunCompositeAlertsAcceptance(t *testing.T) {
	// The E13 acceptance bar: on a 16-server tree, every routing mode
	// synthesizes exactly the expected composite notifications — sequence,
	// accumulation and digest fire identically, expired windows produce
	// nothing — and content routing still undercuts flooding on messages.
	const servers, rounds = 16, 4
	wantSeq, wantSeqWin, wantCount, wantDigest, wantDigestEvents := expectedCompositeAlerts(rounds)
	results := make(map[string]CompositeAlertsResult, 3)
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		r, err := RunCompositeAlerts(servers, rounds, mode, 2005)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results[r.Mode] = r
		if r.Sequence != wantSeq {
			t.Errorf("%s: sequence fired %d, want %d", r.Mode, r.Sequence, wantSeq)
		}
		if r.SequenceWindowed != wantSeqWin {
			t.Errorf("%s: expired-window sequence fired %d, want %d", r.Mode, r.SequenceWindowed, wantSeqWin)
		}
		if r.Count != wantCount {
			t.Errorf("%s: accumulation fired %d, want %d", r.Mode, r.Count, wantCount)
		}
		if r.Digest != wantDigest || r.DigestEvents != wantDigestEvents {
			t.Errorf("%s: digest = %d flushes / %d events, want %d / %d",
				r.Mode, r.Digest, r.DigestEvents, wantDigest, wantDigestEvents)
		}
		if r.WindowsExpired != int64(rounds) {
			t.Errorf("%s: windows expired = %d, want %d", r.Mode, r.WindowsExpired, rounds)
		}
		if r.LiveInstances != 1 {
			t.Errorf("%s: live instances = %d, want 1 (the leftover accumulation)", r.Mode, r.LiveInstances)
		}
	}
	if c, f := results["content"], results["broadcast"]; c.Messages >= f.Messages {
		t.Errorf("content used %d messages, flooding %d — want strictly fewer", c.Messages, f.Messages)
	}
}

func TestCompositeAlertsTableChecksEquivalence(t *testing.T) {
	tbl, err := CompositeAlertsTable(8, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || tbl.Rows() != 3 {
		t.Fatalf("table = %+v", tbl)
	}
}

func TestContentRoutingTableChecksEquivalence(t *testing.T) {
	tbl, err := ContentRoutingTable(8, 3, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
}

func TestRunQoSOverloadAcceptance(t *testing.T) {
	// The E15 acceptance point: a 16-server tree at 10x overload (30 events
	// against a per-subscriber budget of 3) must, in every routing mode,
	// deliver realtime loss-free with bounded p99, defer (not lose) normal,
	// coalesce bulk into one digest carrying every shed event, and account
	// for every match.
	const servers, events, burst = 16, 30, 3
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		r, err := RunQoSOverload(servers, events, burst, mode, 1)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := qosOverloadCheck(r, 30*time.Second); err != nil {
			t.Error(err)
		}
	}
}

func TestQoSOverloadTableAssertsDegradation(t *testing.T) {
	tbl, err := QoSOverloadTable(8, 20, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || tbl.Rows() != 3 {
		t.Fatalf("table = %+v", tbl)
	}
}

func TestRunReplicaFailoverAcceptance(t *testing.T) {
	// The E14 acceptance point: a 16-server tree, the primary killed after
	// half the publisher's rounds and its standby promoted, must deliver
	// exactly the failure-free notification set in every routing mode.
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		r, err := RunReplicaFailover(16, 6, mode, 1)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !r.Identical || r.Baseline != r.Failover {
			t.Errorf("%s: failover delivered %d notifications vs %d baseline (identical=%v)",
				mode, r.Failover, r.Baseline, r.Identical)
		}
		if r.Inherited == 0 {
			t.Errorf("%s: the standby inherited no parked notifications — the detached-client path is untested", mode)
		}
		if r.PreKill == 0 || r.PostPromote == 0 {
			t.Errorf("%s: kill point did not split deliveries (pre=%d post=%d)", mode, r.PreKill, r.PostPromote)
		}
		if r.BaselineComposite != r.FailoverComposite {
			t.Errorf("%s: composite firings %d vs %d baseline", mode, r.FailoverComposite, r.BaselineComposite)
		}
	}
}

func TestReplicaFailoverTableAssertsZeroLoss(t *testing.T) {
	tbl, err := ReplicaFailoverTable(8, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || tbl.Rows() != 3 {
		t.Fatalf("table = %+v", tbl)
	}
}
