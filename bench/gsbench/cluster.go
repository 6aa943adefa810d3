package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/filter"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/transport"
)

// A cluster is one workload's deployment, assembled in-process from the
// constructors and defaults cmd/gs-server and cmd/gds-server use. Every
// component that is its own process in a real deployment gets its own
// transport.HTTP (own client pool, own listeners).

// server is what `gs-server` assembles.
type server struct {
	name     string
	addr     string
	http     *transport.HTTP
	tr       transport.Transport // http, or its traced decorator
	matcher  filter.Matcher      // the undecorated engine, for filter.Stats
	pipeline *delivery.Pipeline
	ctrl     *qos.Controller
	svc      *core.Service
	gs       *greenstone.Server // nil on solitary servers: no wire to listen on
}

type cluster struct {
	sp      spec
	rec     *recorder
	tracer  *tracer // nil unless this is a traced run
	servers []*server
	nodes   []*gds.Node
	https   []*transport.HTTP // every transport, for wire counters

	// wire_flood: the client side.
	recept     *greenstone.Receptionist
	clientAddr []string // notification listener per server

	// durable_replica.
	standby    *server
	primary    *replica.Primary
	standbyEnd *replica.Standby
	walDirs    []string

	closers []func() // run in reverse order
}

// Admission quotas high enough that nothing is ever shed: the controller's
// buckets are consulted on every match but never run dry.
var openQuotas = qos.Config{
	SubscriberRate:  1e9,
	SubscriberBurst: 1 << 30,
	CollectionRate:  1e9,
	CollectionBurst: 1 << 30,
}

// freeAddr probes a free loopback port. The port is released before use, so
// two benchmark runs can coexist; losing the race to another process shows
// up as a listen error.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (c *cluster) onClose(fn func()) { c.closers = append(c.closers, fn) }

func (c *cluster) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	c.closers = nil
}

// newTransport builds one component's transport, decorated in traced runs.
func (c *cluster) newTransport() (*transport.HTTP, transport.Transport) {
	h := transport.NewHTTP()
	c.https = append(c.https, h)
	c.onClose(func() { _ = h.Close() })
	if c.tracer == nil {
		return h, h
	}
	return h, &tracedTransport{inner: h, t: c.tracer}
}

// newServer mirrors cmd/gs-server's assembly with its flag defaults:
// delivery 4 shards / 1024 / batch 32 / 25 ms, logging at info into the
// flight rings with the stderr sink discarded, 1 s composite ticker, the
// retry queue running, tracer nil.
func (c *cluster) newServer(index int, name, gdsAddr, walDir string, listen bool) (*server, error) {
	s := &server{name: name}
	s.http, s.tr = c.newTransport()
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s.addr = addr

	rec := logging.NewRecorder(logging.Config{Level: logging.LevelInfo, Sink: io.Discard})
	s.pipeline, err = delivery.NewPipeline(delivery.Config{
		Shards:        delivery.DefaultShards,
		QueueDepth:    delivery.DefaultQueueDepth,
		BatchSize:     delivery.DefaultBatchSize,
		FlushInterval: delivery.DefaultFlushInterval,
		Dir:           walDir,
		MailboxCap:    delivery.DefaultMailboxCap,
		Log:           rec.For("delivery"),
	})
	if err != nil {
		return nil, fmt.Errorf("%s: delivery pipeline: %w", name, err)
	}
	c.onClose(func() { _ = s.pipeline.Close() })

	if c.sp.qos {
		s.ctrl = qos.NewController(openQuotas)
	}
	var gdsCli *gds.Client
	if gdsAddr != "" {
		gdsCli = gds.NewClient(name, addr, gdsAddr, s.tr)
	}
	s.matcher = filter.NewEqualityPreferred()
	matcher := s.matcher
	if c.tracer != nil {
		matcher = &tracedMatcher{Matcher: s.matcher, t: c.tracer, rec: c.rec, server: index}
	}
	store := collection.NewStore(name)
	s.svc, err = core.New(core.Config{
		ServerName: name,
		ServerAddr: addr,
		Transport:  s.tr,
		GDS:        gdsCli,
		Store:      store,
		Matcher:    matcher,
		Delivery:   s.pipeline,
		QoS:        s.ctrl,
		Log:        rec.For("core"),
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c.onClose(func() { _ = s.svc.Close() })
	if err := s.svc.StartCompositeTicker(time.Second); err != nil {
		return nil, err
	}
	if err := s.svc.Retry().Start(2 * time.Second); err != nil {
		return nil, err
	}
	if listen {
		s.gs, err = greenstone.NewServer(greenstone.ServerConfig{
			Name:      name,
			Addr:      addr,
			Transport: s.tr,
			Store:     store,
			Alerting:  s.svc,
			Resolver:  gdsCli,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		c.onClose(func() { _ = s.gs.Close() })
	}
	if gdsCli != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := gdsCli.Register(ctx); err != nil {
			return nil, fmt.Errorf("%s: register with GDS: %w", name, err)
		}
	}
	return s, nil
}

// newNode mirrors cmd/gds-server.
func (c *cluster) newNode(id string, stratum int, parent *gds.Node) (*gds.Node, error) {
	_, tr := c.newTransport()
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	n, err := gds.NewNode(id, addr, stratum, tr)
	if err != nil {
		return nil, err
	}
	c.onClose(func() { _ = n.Close() })
	n.SetLog(logging.NewRecorder(logging.Config{Level: logging.LevelInfo, Sink: io.Discard}).For("gds"))
	if parent != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := n.AttachToParent(ctx, parent.ID(), parent.Addr()); err != nil {
			return nil, err
		}
	}
	c.nodes = append(c.nodes, n)
	return n, nil
}

// originName is the server every workload publishes at.
const originName = "gs0"

// assemble builds the deployment for sp. On error the caller closes c.
func assemble(sp spec, rec *recorder, tr *tracer) (*cluster, error) {
	c := &cluster{sp: sp, rec: rec, tracer: tr}
	var err error
	switch sp.shape {
	case shapeFlood:
		err = c.assembleFlood()
	case shapeSolitary:
		var s *server
		if s, err = c.newServer(0, originName, "", "", false); err == nil {
			c.servers = append(c.servers, s)
		}
	case shapeReplica:
		err = c.assembleReplica()
	default:
		err = fmt.Errorf("unknown shape %d", sp.shape)
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// assembleFlood builds root + 2 leaf GDS nodes, 2 servers per leaf, and the
// client side: a receptionist and one notification listener per server.
func (c *cluster) assembleFlood() error {
	root, err := c.newNode("gds-root", 1, nil)
	if err != nil {
		return err
	}
	var leaves []*gds.Node
	for i := 0; i < 2; i++ {
		leaf, err := c.newNode(fmt.Sprintf("gds-leaf%d", i), 2, root)
		if err != nil {
			return err
		}
		leaves = append(leaves, leaf)
	}
	for i := 0; i < floodServers; i++ {
		s, err := c.newServer(i, fmt.Sprintf("gs%d", i), leaves[i/2].Addr(), "", true)
		if err != nil {
			return err
		}
		c.servers = append(c.servers, s)
	}
	_, clientTr := c.newTransport()
	c.recept = greenstone.NewReceptionist("recept", clientTr)
	for i, s := range c.servers {
		c.recept.Connect(s.name, s.addr)
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		l, err := clientTr.Listen(addr, &wireSink{rec: c.rec, server: i})
		if err != nil {
			return err
		}
		c.onClose(func() { _ = l.Close() })
		c.clientAddr = append(c.clientAddr, addr)
	}
	return nil
}

// assembleReplica builds a primary with WAL mailboxes and a standby that
// joined its replication stream, as `gs-server -mailbox-dir … -replica-listen`
// and `gs-server -replica-of …` would.
func (c *cluster) assembleReplica() error {
	mkdir := func() (string, error) {
		dir, err := os.MkdirTemp("", "gsbench-wal-")
		if err != nil {
			return "", err
		}
		c.walDirs = append(c.walDirs, dir)
		c.onClose(func() { _ = os.RemoveAll(dir) })
		return dir, nil
	}
	pdir, err := mkdir()
	if err != nil {
		return err
	}
	sdir, err := mkdir()
	if err != nil {
		return err
	}
	prim, err := c.newServer(0, originName, "", pdir, false)
	if err != nil {
		return err
	}
	c.servers = append(c.servers, prim)
	c.standby, err = c.newServer(1, originName, "", sdir, false)
	if err != nil {
		return err
	}
	primRepl, err := freeAddr()
	if err != nil {
		return err
	}
	sbyRepl, err := freeAddr()
	if err != nil {
		return err
	}
	c.primary, err = replica.NewPrimary(replica.PrimaryConfig{
		Service: prim.svc, Transport: prim.tr, ListenAddr: primRepl,
	})
	if err != nil {
		return err
	}
	c.onClose(func() { _ = c.primary.Close() })
	c.standbyEnd, err = replica.NewStandby(replica.StandbyConfig{
		Service: c.standby.svc, Transport: c.standby.tr,
		ListenAddr: sbyRepl, PrimaryAddr: primRepl,
	})
	if err != nil {
		return err
	}
	c.onClose(func() { _ = c.standbyEnd.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.standbyEnd.Join(ctx)
}

// origin is the server the publishers and the churn stream drive.
func (c *cluster) origin() *server { return c.servers[0] }

// homeOf spreads clients over the servers.
func (c *cluster) homeOf(client int) int { return client % len(c.servers) }

// populate subscribes the whole population and attaches the sinks of every
// client that is not detached.
func (c *cluster) populate(ctx context.Context, g *gen) error {
	for i := 0; i < c.sp.profiles(); i++ {
		home := c.servers[c.homeOf(int(g.clientOf[i]))]
		p, err := g.profile(i, home.name)
		if err != nil {
			return err
		}
		if c.recept != nil {
			err = c.recept.Subscribe(ctx, home.name, p)
		} else {
			err = home.svc.SubscribeProfile(p)
		}
		if err != nil {
			return fmt.Errorf("subscribe profile %d: %w", i, err)
		}
	}
	for client := 0; client < c.sp.clients; client++ {
		if g.detached(client) {
			continue
		}
		if err := c.attach(ctx, client); err != nil {
			return err
		}
	}
	return nil
}

// attach connects one client's sink: over the wire where the workload has
// one (notifications then come back as gs.notify-batch), in-process else.
func (c *cluster) attach(ctx context.Context, client int) error {
	h := c.homeOf(client)
	if c.recept != nil {
		return c.recept.AttachNotifications(ctx, c.servers[h].name, clientName(client), c.clientAddr[h])
	}
	c.servers[h].svc.RegisterNotifier(clientName(client), &batchSink{rec: c.rec, server: h, tr: c.tracer})
	return nil
}

// drain waits until every server's pipeline is quiescent.
func (c *cluster) drain(ctx context.Context) error {
	var errs []error
	for _, s := range c.servers {
		if err := s.svc.DrainDeliveries(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s: drain: %w", s.name, err))
		}
	}
	return errors.Join(errs...)
}

func (c *cluster) queueDepth() int {
	total := 0
	for _, s := range c.servers {
		for _, d := range s.pipeline.QueueDepths() {
			total += d
		}
	}
	return total
}
