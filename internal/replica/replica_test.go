package replica

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/transport"
)

// pair builds a primary service + replicator and a standby service +
// receiver over one memory transport, without any directory.
type pair struct {
	tr      *transport.Memory
	primary *core.Service
	standby *core.Service
	repl    *Primary
	recv    *Standby
}

func newPair(t testing.TB) *pair {
	t.Helper()
	tr := transport.NewMemory()
	mk := func(addr string) *core.Service {
		svc, err := core.New(core.Config{ServerName: "Alpha", ServerAddr: addr, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	p := &pair{tr: tr, primary: mk("gs://alpha"), standby: mk("gs://alpha-b")}
	t.Cleanup(func() {
		_ = p.primary.Close()
		_ = p.standby.Close()
		_ = tr.Close()
	})
	repl, err := NewPrimary(PrimaryConfig{Service: p.primary, Transport: tr, ListenAddr: "repl://alpha"})
	if err != nil {
		t.Fatal(err)
	}
	p.repl = repl
	recv, err := NewStandby(StandbyConfig{
		Service:     p.standby,
		Transport:   tr,
		ListenAddr:  "repl://alpha-b",
		PrimaryAddr: "repl://alpha",
	})
	if err != nil {
		t.Fatal(err)
	}
	p.recv = recv
	t.Cleanup(func() {
		_ = repl.Close()
		_ = recv.Close()
	})
	return p
}

func (p *pair) publish(t *testing.T, ctx context.Context, ids ...string) {
	t.Helper()
	evs := make([]*event.Event, 0, len(ids))
	for _, id := range ids {
		evs = append(evs, event.New(id, event.TypeDocumentsAdded,
			event.QName{Host: "Alpha", Collection: "C"}, 1,
			[]event.DocRef{{ID: "d-" + id}}, time.Unix(1117584000, 0)))
	}
	if _, err := p.primary.PublishBuild(ctx, &collection.BuildResult{Events: evs}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamReplicatesState(t *testing.T) {
	ctx := context.Background()
	p := newPair(t)
	if err := p.recv.Join(ctx); err != nil {
		t.Fatal(err)
	}

	// Profile churn after the join travels over the stream: a primitive, a
	// composite wrapper, and an unsubscription.
	id1, err := p.primary.Subscribe("carol", profile.MustParse(`collection = "Alpha.C"`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.primary.SubscribeComposite("carol",
		`COUNT 2 OF (collection = "Alpha.C") WITHIN 24h`); err != nil {
		t.Fatal(err)
	}
	gone, err := p.primary.Subscribe("carol", profile.MustParse(`collection = "Alpha.Z"`))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.primary.Unsubscribe("carol", gone); err != nil {
		t.Fatal(err)
	}

	// Events for a detached client park in the mailbox on both ends; the
	// dedup admission replicates alongside.
	p.publish(t, ctx, "e1", "e2")
	if err := p.primary.DrainDeliveries(ctx); err != nil {
		t.Fatal(err)
	}

	if got := p.standby.UserProfileCount(); got != 2 { // primitive + composite step
		t.Errorf("standby user profiles = %d, want 2", got)
	}
	if got := p.standby.CompositeProfileCount(); got != 1 {
		t.Errorf("standby composite profiles = %d, want 1", got)
	}
	// Three parked notifications: e1 and e2 through the primitive profile,
	// plus the COUNT 2 composite firing that e2 completed.
	if got := p.standby.Delivery().Pending("carol"); got != 3 {
		t.Errorf("standby parked notifications = %d, want 3", got)
	}
	if !p.standby.ObserveDedup("e1") {
		t.Error("standby dedup window is missing a replicated admission")
	}
	// The primitive profile replicated under its primary-minted ID.
	if got := p.standby.ProfilesOf("carol"); len(got) != 2 || got[0] != id1 && got[1] != id1 {
		t.Errorf("standby profiles of carol = %v, want to include %s", got, id1)
	}

	// Delivery at the primary acks through the stream: the standby's copy
	// of the mailbox drains without ever delivering anything itself.
	sink := core.NewMemoryNotifier()
	p.primary.RegisterNotifier("carol", sink)
	waitFor(t, func() bool { return p.primary.Delivery().Pending("carol") == 0 && sink.Len() == 3 })
	waitFor(t, func() bool { return p.standby.Delivery().Pending("carol") == 0 })
}

func TestSnapshotCatchUpAndRejoin(t *testing.T) {
	ctx := context.Background()
	p := newPair(t)

	// State accumulated before the standby exists arrives via the join
	// snapshot, not the stream.
	if _, err := p.primary.Subscribe("dave", profile.MustParse(`collection = "Alpha.C"`)); err != nil {
		t.Fatal(err)
	}
	p.publish(t, ctx, "pre1", "pre2", "pre3")
	if err := p.primary.DrainDeliveries(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.recv.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.standby.Delivery().Pending("dave"); got != 3 {
		t.Fatalf("standby parked after snapshot = %d, want 3", got)
	}
	if got := p.standby.UserProfileCount(); got != 1 {
		t.Fatalf("standby user profiles after snapshot = %d, want 1", got)
	}

	// A heartbeat against a healthy, in-sync pair must not resync.
	if err := p.recv.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if st := p.standby.Stats(); st.ReplicaSnapshots != 1 {
		t.Errorf("healthy heartbeat resynced: snapshots = %d, want 1", st.ReplicaSnapshots)
	}

	// Cut the standby: streamed records are dropped and the stream marked
	// broken; the next heartbeat detects it and rejoins, resyncing
	// everything that was missed.
	p.tr.SetNodeDown("repl://alpha-b", true)
	p.publish(t, ctx, "cut1", "cut2")
	if err := p.primary.DrainDeliveries(ctx); err != nil {
		t.Fatal(err)
	}
	p.tr.SetNodeDown("repl://alpha-b", false)
	if got := p.standby.Delivery().Pending("dave"); got != 3 {
		t.Fatalf("standby saw records across a dead link: parked = %d, want 3", got)
	}
	if err := p.recv.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.standby.Delivery().Pending("dave"); got != 5 {
		t.Errorf("standby parked after heartbeat-triggered rejoin = %d, want 5", got)
	}
	st := p.primary.Stats()
	if st.ReplicaRole != "primary" || st.ReplicaDropped == 0 {
		t.Errorf("primary replica stats = role %q dropped %d, want primary role with drops counted",
			st.ReplicaRole, st.ReplicaDropped)
	}
}

func TestSyncSnapshotRepairsBrokenStream(t *testing.T) {
	ctx := context.Background()
	p := newPair(t)
	if err := p.recv.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.primary.Subscribe("fay", profile.MustParse(`collection = "Alpha.C"`)); err != nil {
		t.Fatal(err)
	}

	// Break the stream, lose records, heal: the primary-side push repair.
	p.tr.SetNodeDown("repl://alpha-b", true)
	p.publish(t, ctx, "lost1")
	if err := p.primary.DrainDeliveries(ctx); err != nil {
		t.Fatal(err)
	}
	p.tr.SetNodeDown("repl://alpha-b", false)
	if err := p.repl.SyncSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.standby.Delivery().Pending("fay"); got != 1 {
		t.Fatalf("standby parked after push snapshot = %d, want 1", got)
	}
	// The successful snapshot un-breaks the stream: subsequent records
	// flow again without another join.
	p.publish(t, ctx, "flow1")
	if err := p.primary.DrainDeliveries(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.standby.Delivery().Pending("fay"); got != 2 {
		t.Errorf("standby parked after stream resumed = %d, want 2", got)
	}
	if got, want := p.repl.confirmed.Load(), p.recv.applied.Load(); got != want {
		t.Errorf("primary confirmed seq %d, standby applied %d — positions diverge", got, want)
	}
}

func TestPromoteTakesOverNameAndRouting(t *testing.T) {
	ctx := context.Background()
	tr := transport.NewMemory()
	defer tr.Close()
	node, err := gds.NewNode("gds0", "gds://0", 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	mk := func(name, addr string, cli *gds.Client) *core.Service {
		svc, err := core.New(core.Config{
			ServerName: name, ServerAddr: addr, Transport: tr, GDS: cli, ContentWarmup: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = svc.Close() })
		return svc
	}
	priCli := gds.NewClient("Alpha", "gs://alpha", "gds://0", tr)
	primary := mk("Alpha", "gs://alpha", priCli)
	if err := priCli.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if err := primary.SetRoutingMode(ctx, core.RouteMulticast); err != nil {
		t.Fatal(err)
	}
	repl, err := NewPrimary(PrimaryConfig{Service: primary, Transport: tr, ListenAddr: "repl://alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()

	// The standby carries the primary's NAME but its own address, and does
	// not register until promotion.
	sbCli := gds.NewClient("Alpha", "gs://alpha-b", "gds://0", tr)
	standby := mk("Alpha", "gs://alpha-b", sbCli)
	recv, err := NewStandby(StandbyConfig{
		Service: standby, Transport: tr,
		ListenAddr: "repl://alpha-b", PrimaryAddr: "repl://alpha",
		GDS: sbCli,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	if err := recv.Promote(ctx, 0); err == nil {
		t.Fatal("promote of a never-synced standby must refuse")
	}
	if err := recv.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Subscribe("erin", profile.MustParse(`collection = "Beta.X"`)); err != nil {
		t.Fatal(err)
	}

	// A promotion that cannot reach the directory must fail AND roll back:
	// the standby keeps consuming the stream and a later retry re-attempts
	// the registration (no zombie that neither serves nor replicates).
	tr.SetNodeDown("gds://0", true)
	if err := recv.Promote(ctx, 0); err == nil {
		t.Fatal("promote with the directory unreachable must fail")
	}
	if recv.Promoted() {
		t.Fatal("failed promotion left promoted=true")
	}
	tr.SetNodeDown("gds://0", false)
	if _, err := primary.Subscribe("erin", profile.MustParse(`collection = "Gamma.Y"`)); err != nil {
		t.Fatal(err)
	}
	if got := standby.UserProfileCount(); got != 2 {
		t.Fatalf("standby stopped consuming the stream after a failed promotion: profiles = %d, want 2", got)
	}

	// Kill the primary and promote: the directory must now resolve the
	// inherited name to the standby's address and hold its group joins.
	tr.SetNodeDown("gs://alpha", true)
	tr.SetNodeDown("Alpha", true) // outbound sends from the dead process
	// The standby's own traffic uses the same logical From name; promotion
	// happens after the takeover decision, so bring the name back up for
	// the standby (crash fencing is the operator's concern, not the sim's).
	tr.SetNodeDown("Alpha", false)
	if err := recv.Promote(ctx, 0); err != nil {
		t.Fatal(err)
	}
	addr, err := sbCli.Resolve(ctx, "Alpha")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "gs://alpha-b" {
		t.Errorf("post-promotion resolution = %q, want gs://alpha-b", addr)
	}
	if standby.RoutingMode() != core.RouteMulticast {
		t.Errorf("promoted routing mode = %s, want multicast (inherited)", standby.RoutingMode())
	}
	snap := node.Snapshot()
	if members := snap.Groups["coll:beta.x"]; len(members) != 1 || members[0] != "Alpha" {
		t.Errorf("post-promotion group members = %v, want [Alpha]", members)
	}
	if !recv.Promoted() {
		t.Error("standby does not report promotion")
	}
	st := standby.Stats()
	if st.ReplicaRole != "primary" || !st.ReplicaPromoted {
		t.Errorf("promoted stats role=%q promoted=%v", st.ReplicaRole, st.ReplicaPromoted)
	}

	// Client-side failover: a receptionist still pointing at the dead
	// primary re-resolves the inherited name through the directory and
	// reaches the standby.
	recep := greenstone.NewReceptionist("r", tr)
	recep.Connect("Alpha", "gs://alpha")
	refreshed, err := recep.RefreshHost(ctx, "Alpha", sbCli)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed != "gs://alpha-b" {
		t.Errorf("receptionist refreshed to %q, want gs://alpha-b", refreshed)
	}
}

func TestStreamRejectedAfterPromotion(t *testing.T) {
	ctx := context.Background()
	p := newPair(t)
	if err := p.recv.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.recv.Promote(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.primary.Subscribe("zoe", profile.MustParse(`collection = "Alpha.C"`)); err != nil {
		t.Fatal(err)
	}
	if got := p.standby.UserProfileCount(); got != 0 {
		t.Errorf("promoted standby applied a zombie-primary record: profiles = %d", got)
	}
	if st := p.primary.Stats(); st.ReplicaErrors == 0 {
		t.Error("zombie primary's rejected stream not counted as an error")
	}
	// A snapshot the dying primary still had in flight must not wipe the
	// promoted, serving state either.
	if err := p.repl.SyncSnapshot(ctx); err == nil {
		t.Error("promoted standby accepted a zombie-primary snapshot")
	}
	// And heartbeats from the promoted side are a no-op, not a rejoin.
	if err := p.recv.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if p.standby.Stats().ReplicaSnapshots != 1 {
		t.Error("promoted standby's heartbeat resynced from the zombie primary")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestQoSBucketsSurvivePromotion checks the carried-over ROADMAP item:
// token-bucket levels replicate in snapshots and heartbeats, so a promoted
// standby enforces the quotas the primary had already charged instead of
// granting every subscriber a fresh burst.
func TestQoSBucketsSurvivePromotion(t *testing.T) {
	ctx := context.Background()
	p := newPair(t)

	// Burst-only quotas (no refill) on both ends: deterministic levels.
	qcfg := qos.Config{SubscriberBurst: 5, CollectionBurst: 100}
	p.primary.SetQoS(qos.NewController(qcfg))
	p.standby.SetQoS(qos.NewController(qcfg))

	// Charge 3 of carol's 5 tokens on the primary.
	for i := 0; i < 3; i++ {
		if !p.primary.QoS().AllowSubscriber("carol") {
			t.Fatalf("admission %d refused under burst 5", i)
		}
	}

	// The join snapshot ships the levels.
	if err := p.recv.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.recv.Ready(); err != nil {
		t.Fatalf("standby not ready after join: %v", err)
	}

	// Charge one more on the primary, then heartbeat: the probe response
	// piggybacks the fresher levels.
	if !p.primary.QoS().AllowSubscriber("carol") {
		t.Fatal("fourth admission refused under burst 5")
	}
	if err := p.recv.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.recv.Ready(); err != nil {
		t.Fatalf("standby not ready after successful heartbeat: %v", err)
	}

	// Promote. The standby's controller must hold carol at 1 remaining
	// token: one more admission passes, the next is refused — not the 5
	// fresh tokens a reset would grant.
	if err := p.recv.Promote(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if !p.standby.QoS().AllowSubscriber("carol") {
		t.Fatal("promoted standby refused carol's last budgeted admission")
	}
	if p.standby.QoS().AllowSubscriber("carol") {
		t.Fatal("promotion reset carol's quota: sixth admission passed")
	}
	// An untouched subscriber still gets its full burst.
	if !p.standby.QoS().AllowSubscriber("dave") {
		t.Fatal("fresh subscriber refused on promoted standby")
	}
}

// TestStandbyReady walks the readiness rule gs-server's /readyz gates on:
// not ready before the first snapshot, ready once joined, not ready while
// the primary does not answer probes, ready again after a heal, and ready
// unconditionally once promoted.
func TestStandbyReady(t *testing.T) {
	ctx := context.Background()
	p := newPair(t)
	if err := p.recv.Ready(); err == nil {
		t.Fatal("ready before the first join")
	}
	if err := p.recv.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.recv.Ready(); err != nil {
		t.Fatalf("not ready after join: %v", err)
	}
	p.tr.SetNodeDown("repl://alpha", true)
	_ = p.recv.Heartbeat(ctx)
	if err := p.recv.Ready(); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("ready = %v with the primary down, want ErrUnreachable", err)
	}
	p.tr.SetNodeDown("repl://alpha", false)
	if err := p.recv.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.recv.Ready(); err != nil {
		t.Fatalf("not ready after heal: %v", err)
	}
	p.tr.SetNodeDown("repl://alpha", true)
	_ = p.recv.Heartbeat(ctx)
	if err := p.recv.Promote(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.recv.Ready(); err != nil {
		t.Fatalf("not ready after promotion: %v", err)
	}
}

// TestStatsDoNotWaitOnWedgedStandby pins the ops-plane bugfix: stream()
// holds the stream lock across a synchronous send of up to streamTimeout,
// so a scrape that read the counters under that lock froze /metrics,
// /stats and the replica-stream-lag health rule exactly when a standby
// wedged. The counters are atomics now: with a send blocked in flight,
// Service.Stats() and a registry gather still answer at once and report
// the un-acked record as lag.
func TestStatsDoNotWaitOnWedgedStandby(t *testing.T) {
	ctx := context.Background()
	tr := transport.NewMemory()
	defer func() { _ = tr.Close() }()
	svc, err := core.New(core.Config{ServerName: "Alpha", ServerAddr: "gs://alpha", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	prim, err := NewPrimary(PrimaryConfig{Service: svc, Transport: tr, ListenAddr: "repl://alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = prim.Close() }()

	// A standby whose handler blocks every stream record until released.
	entered, release := make(chan struct{}), make(chan struct{})
	l, err := tr.Listen("repl://wedged", transport.HandlerFunc(
		func(context.Context, *protocol.Envelope) (*protocol.Envelope, error) {
			close(entered)
			<-release
			return protocol.MustEnvelope("Alpha", protocol.MsgReplAck, &protocol.ReplAck{AppliedSeq: 1}), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	join := protocol.MustEnvelope("Alpha", protocol.MsgReplAck,
		&protocol.ReplAck{Resync: true, Addr: "repl://wedged", ServerName: "Alpha"})
	if err := transport.SendExpect(ctx, tr, "repl://alpha", join, protocol.MsgReplSnapshot, &protocol.ReplSnapshot{}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := svc.Subscribe("carol", profile.MustParse(`collection = "Alpha.C"`))
		done <- err
	}()
	<-entered // the stream send is now in flight, under the stream lock

	reg := obs.NewRegistry()
	obs.RegisterService(reg, svc.Stats)
	type scrape struct {
		lag, gathered float64
	}
	scraped := make(chan scrape, 1) // buffered: the scrape may outlive a failed wait
	go func() {
		sc := scrape{lag: float64(svc.Stats().ReplicaStreamLag)}
		scalars, _ := reg.Gather()
		for _, s := range scalars {
			if s.Name == "gsalert_replica_stream_lag" {
				sc.gathered = s.Value
			}
		}
		scraped <- sc
	}()
	select {
	case sc := <-scraped:
		if sc.lag != 1 || sc.gathered != 1 {
			t.Errorf("with one un-acked record in flight: ReplicaStreamLag = %v, gathered gsalert_replica_stream_lag = %v, want 1 and 1", sc.lag, sc.gathered)
		}
	case <-time.After(100 * time.Millisecond):
		t.Error("Stats + Gather did not return within 100ms while a stream send was in flight")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.ReplicaStreamLag != 0 || st.ReplicaStreamed != 1 {
		t.Errorf("after the ack: lag=%d streamed=%d, want 0 and 1", st.ReplicaStreamLag, st.ReplicaStreamed)
	}
}

// benchReplication measures the publish→match→deliver path of one server
// with `profiles` subscribed profiles (one matches each event), with and
// without a standby consuming the synchronous replication stream. The delta
// is the steady-state cost of zero-loss replication: one stream round-trip
// per dedup admission, mailbox append and delivery ack.
func benchReplication(b *testing.B, profiles int, replicated bool) {
	b.Helper()
	ctx := context.Background()
	var primary *core.Service
	if replicated {
		p := newPair(b)
		if err := p.recv.Join(ctx); err != nil {
			b.Fatal(err)
		}
		primary = p.primary
	} else {
		tr := transport.NewMemory()
		svc, err := core.New(core.Config{ServerName: "Alpha", ServerAddr: "gs://alpha", Transport: tr})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			_ = svc.Close()
			_ = tr.Close()
		})
		primary = svc
	}
	for i := 0; i < profiles; i++ {
		if _, err := primary.Subscribe("u", profile.MustParse(
			fmt.Sprintf(`collection = "Alpha.C" AND dc.Creator = "Author%d"`, i))); err != nil {
			b.Fatal(err)
		}
	}
	primary.RegisterNotifier("u", core.NotifierFunc(func(core.Notification) {}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := event.New(fmt.Sprintf("bench-repl-%d", i), event.TypeDocumentsAdded,
			event.QName{Host: "Alpha", Collection: "C"}, 1,
			[]event.DocRef{{
				ID:       fmt.Sprintf("d%d", i),
				Metadata: map[string][]string{"dc.Creator": {fmt.Sprintf("Author%d", i%profiles)}},
			}}, time.Unix(1117584000, 0))
		if _, err := primary.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
			b.Fatal(err)
		}
	}
	if err := primary.DrainDeliveries(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReplication compares an unreplicated server against one
// streaming every state change to a standby (experiment E14's steady-state
// overhead measurement). ROADMAP item 2 states its target in these names:
// replicated/unreplicated ≤ 3×.
func BenchmarkReplication(b *testing.B) {
	for _, profiles := range []int{100, 1000} {
		b.Run(fmt.Sprintf("unreplicated/profiles=%d", profiles), func(b *testing.B) {
			benchReplication(b, profiles, false)
		})
		b.Run(fmt.Sprintf("replicated/profiles=%d", profiles), func(b *testing.B) {
			benchReplication(b, profiles, true)
		})
	}
}
