package sim

import (
	"context"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
)

// superSubCluster builds the paper's §4.2 pair: Hamilton.D (with London.E
// as a sub-collection when withSub) and London.E, plus a subscriber alice
// at Hamilton watching Hamilton.D.
func superSubCluster(t *testing.T, withSub bool) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Seed: 44, GDSNodes: 2, GDSBranching: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	for i, name := range []string{"Hamilton", "London"} {
		if _, err := c.AddServer(name, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Server("Hamilton").AddCollection(ctx, superConfig(withSub)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Server("London").AddCollection(ctx, collection.Config{Name: "E", Public: true}); err != nil {
		t.Fatal(err)
	}
	c.Notifier("Hamilton", "alice")
	if _, err := c.Service("Hamilton").Subscribe("alice", profile.MustParse(`collection = "Hamilton.D"`)); err != nil {
		t.Fatal(err)
	}
	return c
}

func superConfig(withSub bool) collection.Config {
	cfg := collection.Config{Name: "D", Public: true}
	if withSub {
		cfg.Subs = []collection.SubRef{{Host: "London", Name: "E"}}
	}
	return cfg
}

func buildE(t *testing.T, c *Cluster, round int) {
	t.Helper()
	if _, _, err := c.Server("London").Build(context.Background(), "E", syntheticDocs(2, round)); err != nil {
		t.Fatal(err)
	}
	c.Settle(context.Background())
}

// TestStaleCancelDoesNotOvertakeReinstall: a cancel that waited out a
// partition must reach London before the install that re-adds the same
// auxiliary profile after the heal. Were the install sent ahead of the
// waiting cancel, the cancel would land last and remove the live profile,
// and no later London.E build would reach Hamilton.D's subscriber.
func TestStaleCancelDoesNotOvertakeReinstall(t *testing.T) {
	c := superSubCluster(t, true)
	ctx := context.Background()
	if got := c.Service("London").AuxProfileCount(); got != 1 {
		t.Fatalf("aux profiles at London before the partition = %d", got)
	}

	c.PartitionServers("Hamilton", "London")
	if err := c.Server("Hamilton").Reconfigure(ctx, superConfig(false)); err != nil {
		t.Fatal(err)
	}
	c.HealServers("Hamilton", "London")
	if err := c.Server("Hamilton").Reconfigure(ctx, superConfig(true)); err != nil {
		t.Fatal(err)
	}
	c.FlushRetries(ctx)
	c.Settle(ctx)

	if got := c.Service("London").AuxProfileCount(); got != 1 {
		t.Errorf("aux profiles at London after re-install = %d, want 1 (Hamilton lists %v)",
			got, c.Service("Hamilton").ForwardedAuxIDs())
	}
	buildE(t, c, 1)
	if got := len(c.Notifications("Hamilton", "alice")); got == 0 {
		t.Error("a London.E build after the re-install notified nobody at Hamilton.D")
	}
}

// TestDanglingForwardRefused: an auxiliary profile installed at London for
// a Hamilton.D that no longer has London.E as a sub-collection (paper §7's
// dangling profile) must not turn London.E builds into Hamilton.D alerts.
// Hamilton refuses the forward and sends London a cancel, which removes the
// dangling profile.
func TestDanglingForwardRefused(t *testing.T) {
	c := superSubCluster(t, false)
	ctx := context.Background()
	aux := profile.NewAuxiliary("aux:Hamilton.D>London.E",
		event.QName{Host: "Hamilton", Collection: "D"}, event.QName{Host: "London", Collection: "E"})
	raw, err := aux.MarshalXMLBytes()
	if err != nil {
		t.Fatal(err)
	}
	env := protocol.MustEnvelope("Hamilton", protocol.MsgForwardProfile, &protocol.ForwardProfile{Profile: protocol.Wrap(raw)})
	if err := c.Service("London").HandleForwardProfile(env); err != nil {
		t.Fatal(err)
	}

	refusedBefore := c.Service("Hamilton").Stats().CycleRefusals
	buildE(t, c, 1)
	c.FlushRetries(ctx)
	c.Settle(ctx)
	if got := c.Notifications("Hamilton", "alice"); len(got) != 0 {
		t.Errorf("dangling forward notified alice %d times", len(got))
	}
	if got := c.Service("Hamilton").Stats().Transforms; got != 0 {
		t.Errorf("Hamilton transformed %d dangling forwards", got)
	}
	if got := c.Service("Hamilton").Stats().CycleRefusals; got == refusedBefore {
		t.Error("the refused forward was not counted")
	}
	if got := c.Service("London").AuxProfileCount(); got != 0 {
		t.Errorf("dangling aux profile still installed at London: %d", got)
	}
	buildE(t, c, 2)
	if got := c.Notifications("Hamilton", "alice"); len(got) != 0 {
		t.Errorf("a later London.E build notified alice %d times", len(got))
	}
}

// A forward the destination refuses (here: for a super-collection that no
// longer exists) is final. It must not wait in London's mailbox for
// Hamilton, where every later forward would queue behind it, and Hamilton
// answers it with a cancel of the dangling aux profile.
func TestRefusedForwardDoesNotBlockDestination(t *testing.T) {
	c := superSubCluster(t, true)
	ctx := context.Background()
	gone := profile.NewAuxiliary("aux:Hamilton.Gone>London.E",
		event.QName{Host: "Hamilton", Collection: "Gone"}, event.QName{Host: "London", Collection: "E"})
	raw, err := gone.MarshalXMLBytes()
	if err != nil {
		t.Fatal(err)
	}
	env := protocol.MustEnvelope("Hamilton", protocol.MsgForwardProfile, &protocol.ForwardProfile{Profile: protocol.Wrap(raw)})
	if err := c.Service("London").HandleForwardProfile(env); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for round := 1; round <= 2; round++ {
		buildE(t, c, round)
		c.FlushRetries(ctx)
		c.Settle(ctx)
		got := len(c.Notifications("Hamilton", "alice"))
		if got == seen {
			t.Fatalf("build %d of London.E notified nobody at Hamilton.D", round)
		}
		seen = got
	}
	if got := c.Service("London").PendingForwards(); got != 0 {
		t.Errorf("%d forwards wait at London", got)
	}
	if got := c.Service("London").AuxProfileCount(); got != 1 {
		t.Errorf("aux profiles at London = %d, want 1 (the dangling one cancelled)", got)
	}
}

// promoteStandbyOf gives server name a joined warm standby whose retry
// loop runs every few milliseconds, takes the primary off the network and
// closes it, then promotes the standby, whose service it returns.
func promoteStandbyOf(t *testing.T, c *Cluster, name string, before func()) *core.Service {
	t.Helper()
	ctx := context.Background()
	standby, err := c.AddStandby(name, func(cfg *core.Config) {
		cfg.DeliveryConfig = &delivery.Config{FlushInterval: 5 * time.Millisecond, RetryInterval: 10 * time.Millisecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.Join(ctx); err != nil {
		t.Fatal(err)
	}
	before()
	c.TR.SetNodeDown(ServerAddr(name), true)
	if err := c.Service(name).Close(); err != nil {
		t.Fatal(err)
	}
	if err := standby.Promote(ctx, 0); err != nil {
		t.Fatal(err)
	}
	return standby.Service()
}

// await settles the cluster until done holds, failing after five seconds.
func await(t *testing.T, c *Cluster, what string, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		c.Settle(context.Background())
	}
}

// Fence: a forward parked on the sub-collection's server rides the
// replication stream; the promoted standby resumes it, and its retry loop
// delivers it once the partition heals, exactly once.
func TestParkedForwardSurvivesPromotion(t *testing.T) {
	c := superSubCluster(t, true)
	c.PartitionServers("Hamilton", "London")
	london := promoteStandbyOf(t, c, "London", func() {
		buildE(t, c, 1)
		if got := c.Service("London").PendingForwards(); got == 0 {
			t.Fatal("no forward parked during the partition")
		}
	})
	c.Settle(context.Background())
	if got := len(c.Notifications("Hamilton", "alice")); got != 0 {
		t.Fatalf("alice notified %d times during the partition", got)
	}
	c.HealServers("Hamilton", "London")
	await(t, c, "the forward", func() bool { return len(c.Notifications("Hamilton", "alice")) > 0 })
	c.Settle(context.Background())
	if got := len(c.Notifications("Hamilton", "alice")); got != 1 {
		t.Errorf("alice notified %d times after the promotion and heal, want 1", got)
	}
	if err := london.DrainDeliveries(context.Background()); err != nil { // the sent forward's ack
		t.Fatal(err)
	}
	if got := london.PendingForwards(); got != 0 {
		t.Errorf("forwards still parked on the promoted standby: %d", got)
	}
}

// Fence: a cancel parked on the super-collection's server survives its
// promotion and still removes the aux profile at London.
func TestParkedCancelSurvivesPromotion(t *testing.T) {
	c := superSubCluster(t, true)
	ctx := context.Background()
	c.PartitionServers("Hamilton", "London")
	promoteStandbyOf(t, c, "Hamilton", func() {
		if err := c.Server("Hamilton").Reconfigure(ctx, superConfig(false)); err != nil {
			t.Fatal(err)
		}
	})
	if got := c.Service("London").AuxProfileCount(); got != 1 {
		t.Fatalf("aux profiles at London before the heal = %d", got)
	}
	c.HealServers("Hamilton", "London")
	await(t, c, "the cancel", func() bool { return c.Service("London").AuxProfileCount() == 0 })
}

// A standby restarted on its mailbox directory recovers the forwards the
// stream replicated to it and leaves them parked: they are its primary's to
// send until a promotion resumes them. A passive standby that sent them
// could land a stale cancel after the primary's re-install.
func TestRestartedStandbyHoldsReplicatedForwards(t *testing.T) {
	c := superSubCluster(t, true)
	dcfg := delivery.Config{Dir: t.TempDir(), FlushInterval: time.Millisecond, RetryInterval: 5 * time.Millisecond}
	standby, err := c.AddStandby("London", func(cfg *core.Config) { cfg.DeliveryConfig = &dcfg })
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.PartitionServers("Hamilton", "London")
	buildE(t, c, 1)
	if got := standby.Service().PendingForwards(); got != 1 {
		t.Fatalf("forwards replicated to the standby = %d, want 1", got)
	}
	if err := standby.Service().Close(); err != nil {
		t.Fatal(err)
	}
	c.HealServers("Hamilton", "London")
	restarted, err := core.New(core.Config{ServerName: "London", ServerAddr: ServerAddr("Londonb"), Transport: c.Net,
		Resolver: core.StaticResolver{"Hamilton": ServerAddr("Hamilton")}, DeliveryConfig: &dcfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = restarted.Close() })
	time.Sleep(100 * time.Millisecond) // twenty retry intervals
	if err := restarted.DrainDeliveries(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Settle(context.Background())
	if got := len(c.Notifications("Hamilton", "alice")); got != 0 {
		t.Errorf("the restarted standby sent its primary's forward: alice notified %d times", got)
	}
	if got := restarted.PendingForwards(); got != 1 {
		t.Errorf("forwards recovered by the restarted standby = %d, want 1", got)
	}
}
