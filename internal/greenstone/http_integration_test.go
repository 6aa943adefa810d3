package greenstone_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/transport"
)

// freeAddr reserves an OS-assigned port and returns "127.0.0.1:port". The
// tiny close-then-reuse race is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

// httpServer assembles a full Greenstone server with alerting over HTTP.
func httpServer(t *testing.T, tr *transport.HTTP, name, gdsAddr string) (*greenstone.Server, *core.Service) {
	t.Helper()
	addr := freeAddr(t)
	gdsCli := gds.NewClient(name, addr, gdsAddr, tr)
	store := collection.NewStore(name)
	svc, err := core.New(core.Config{
		ServerName: name,
		ServerAddr: addr,
		Transport:  tr,
		GDS:        gdsCli,
		Store:      store,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := greenstone.NewServer(greenstone.ServerConfig{
		Name: name, Addr: addr, Transport: tr,
		Store: store, Alerting: svc, Resolver: gdsCli,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gdsCli.Register(ctx); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return srv, svc
}

// TestFigure3OverHTTP runs the complete Figure 3 scenario — directory tree,
// three servers, auxiliary profile, transform, flood — over real TCP
// sockets via the HTTP transport, proving the stack is not simulation-only.
func TestFigure3OverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	tr := transport.NewHTTP()
	t.Cleanup(func() { _ = tr.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Directory: root (stratum 1) with one child (stratum 2).
	rootAddr, childAddr := freeAddr(t), freeAddr(t)
	root, err := gds.NewNode("gds-root", rootAddr, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })
	child, err := gds.NewNode("gds-child", childAddr, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = child.Close() })
	if err := child.AttachToParent(ctx, "gds-root", rootAddr); err != nil {
		t.Fatal(err)
	}

	// Servers: Hamilton at the root node, London and Berlin at the child.
	hamilton, hamSvc := httpServer(t, tr, "Hamilton", rootAddr)
	london, lonSvc := httpServer(t, tr, "London", childAddr)
	_, berlinSvc := httpServer(t, tr, "Berlin", childAddr)

	// Hamilton.D ⊃ London.E.
	if _, err := london.AddCollection(ctx, collection.Config{Name: "E", Public: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := hamilton.AddCollection(ctx, collection.Config{
		Name: "D", Public: true, Subs: []collection.SubRef{{Host: "London", Name: "E"}},
	}); err != nil {
		t.Fatal(err)
	}
	// The aux profile reached London over real sockets (install is
	// synchronous on the happy path).
	if got := lonSvc.AuxProfileCount(); got != 1 {
		t.Fatalf("aux profiles at London = %d", got)
	}

	// carol at Berlin subscribes to Hamilton.D.
	carol := core.NewMemoryNotifier()
	berlinSvc.RegisterNotifier("carol", carol)
	watch := carol.Watch()
	if _, err := berlinSvc.Subscribe("carol", profile.MustParse(`collection = "Hamilton.D"`)); err != nil {
		t.Fatal(err)
	}

	// London rebuilds E.
	docs := []*collection.Document{{ID: "e1", Content: "european report"}}
	if _, _, err := london.Build(ctx, "E", docs); err != nil {
		t.Fatal(err)
	}

	// All HTTP deliveries on this path are synchronous request/response
	// chains, so the notification is already there; Watch guards against
	// future asynchrony.
	select {
	case n := <-watch:
		if n.Event.Collection.String() != "Hamilton.D" {
			t.Errorf("carol event about %s", n.Event.Collection)
		}
		if n.Event.Origin.String() != "London.E" {
			t.Errorf("origin = %s", n.Event.Origin)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no notification over HTTP within 10s")
	}
	if st := hamSvc.Stats(); st.Transforms != 1 {
		t.Errorf("Hamilton transforms = %d", st.Transforms)
	}

	// Cross-branch naming over HTTP: Berlin resolves Hamilton via the tree.
	berlinCli := gds.NewClient("probe", freeAddr(t), childAddr, tr)
	resolved, err := berlinCli.Resolve(ctx, "Hamilton")
	if err != nil {
		t.Fatal(err)
	}
	if resolved == "" {
		t.Error("empty resolution")
	}

	// Distributed search over HTTP follows the sub-collection.
	recep := greenstone.NewReceptionist("recep", tr)
	recep.Connect("Hamilton", mustResolve(t, ctx, berlinCli, "Hamilton"))
	res, err := recep.Search(ctx, "Hamilton", "D", "european", "", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].Collection != "London.E" {
		t.Errorf("distributed search hits = %+v", res.Hits)
	}
}

func mustResolve(t *testing.T, ctx context.Context, cli *gds.Client, name string) string {
	t.Helper()
	addr, err := cli.Resolve(ctx, name)
	if err != nil {
		t.Fatalf("resolve %s: %v", name, err)
	}
	return addr
}

// TestPersistenceAcrossRestartHTTP exercises the snapshot workflow: a
// server saves its subscriptions, "restarts" (new service instance), loads
// them, and the restored profiles fire.
func TestPersistenceAcrossRestartHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	tr := transport.NewHTTP()
	t.Cleanup(func() { _ = tr.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	rootAddr := freeAddr(t)
	root, err := gds.NewNode("gds-root", rootAddr, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })

	srv1, svc1 := httpServer(t, tr, "Solo1", rootAddr)
	if _, err := svc1.Subscribe("alice", profile.MustParse(`collection = "Solo2.C"`)); err != nil {
		t.Fatal(err)
	}
	var snapshotBuf bytes.Buffer
	if err := svc1.SaveSubscriptions(&snapshotBuf); err != nil {
		t.Fatal(err)
	}
	_ = srv1.Close()

	// "Restart": a brand-new stack restores the snapshot.
	_, svc2 := httpServer(t, tr, "Solo1b", rootAddr)
	if _, err := svc2.LoadSubscriptions(bytes.NewReader(snapshotBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	sink := core.NewMemoryNotifier()
	svc2.RegisterNotifier("alice", sink)

	// A second server publishes the collection alice watches.
	srv3, _ := httpServer(t, tr, "Solo2", rootAddr)
	if _, err := srv3.AddCollection(ctx, collection.Config{Name: "C", Public: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv3.Build(ctx, "C", []*collection.Document{{ID: "d1"}}); err != nil {
		t.Fatal(err)
	}
	if err := svc2.DrainDeliveries(ctx); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 1 {
		t.Fatalf("restored profile notifications = %d, want 1", sink.Len())
	}
}
