// Package sim provides the simulation substrate for the experiment suite:
// cluster assembly (GDS tree + Greenstone servers + alerting services over
// the deterministic memory transport), topology and workload generators, a
// ground-truth oracle, and the scenario runners behind every table in
// docs/EXPERIMENTS.md.
package sim

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/filter"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/transport"
)

// ClusterConfig shapes a simulated deployment.
type ClusterConfig struct {
	// Seed drives every random choice (reproducibility).
	Seed int64
	// GDSNodes is the number of directory nodes (>= 1).
	GDSNodes int
	// GDSBranching is the tree fan-out (>= 1).
	GDSBranching int
}

// Cluster is an assembled simulated deployment.
type Cluster struct {
	TR *transport.Memory
	// Inject wraps TR with a chaos rule set (seeded with the cluster seed);
	// every component the cluster assembles sends through it (Net), so a
	// fault schedule can degrade or sever any slice of the traffic. With no
	// rules armed it is a passthrough.
	Inject *transport.FaultInjector
	// Net is the transport handed to assembled components (= Inject).
	Net   transport.Transport
	Nodes []*gds.Node

	servers   map[string]*greenstone.Server
	services  map[string]*core.Service
	clients   map[string]*gds.Client
	notifiers map[string]map[string]*core.MemoryNotifier // server -> client -> sink
	nodeAddrs []string
	nodeOf    map[string]int // server -> index of the GDS node it registered at
	standbys  []io.Closer    // AddStandby's components, closed last-built first
}

// NewCluster builds the directory tree; servers are added with AddServer.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.GDSNodes < 1 {
		cfg.GDSNodes = 1
	}
	if cfg.GDSBranching < 1 {
		cfg.GDSBranching = 2
	}
	tr := transport.NewMemory()
	inj := transport.NewFaultInjector(tr, cfg.Seed)
	c := &Cluster{
		TR:        tr,
		Inject:    inj,
		Net:       inj,
		servers:   make(map[string]*greenstone.Server),
		services:  make(map[string]*core.Service),
		clients:   make(map[string]*gds.Client),
		notifiers: make(map[string]map[string]*core.MemoryNotifier),
		nodeOf:    make(map[string]int),
	}
	ctx := context.Background()
	for i := 0; i < cfg.GDSNodes; i++ {
		id := fmt.Sprintf("gds%d", i)
		addr := "gds://" + id
		depth := treeDepth(i, cfg.GDSBranching)
		node, err := gds.NewNode(id, addr, depth+1, c.Net)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
		c.nodeAddrs = append(c.nodeAddrs, addr)
		if i > 0 {
			parent := (i - 1) / cfg.GDSBranching
			if err := node.AttachToParent(ctx, c.Nodes[parent].ID(), c.nodeAddrs[parent]); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// NewTree builds the deployment most experiments open with: a directory
// tree of one node per four servers (fan-out 3) and `servers` alerting
// servers named S000, S001, … spread round-robin over the nodes, each
// switched to mode (0 leaves the default, broadcast). mutate, if non-nil,
// adjusts every server's core configuration. The server names are returned
// in creation order.
func NewTree(seed int64, servers int, mode core.RoutingMode, mutate func(*core.Config)) (*Cluster, []string, error) {
	c, err := NewCluster(ClusterConfig{Seed: seed, GDSNodes: max(1, servers/4), GDSBranching: 3})
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, servers)
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("S%03d", i)
		if _, err := c.AddServerWith(name, -1, mutate); err != nil {
			c.Close()
			return nil, nil, err
		}
		if mode != 0 {
			if err := c.Service(name).SetRoutingMode(context.Background(), mode); err != nil {
				c.Close()
				return nil, nil, err
			}
		}
		names = append(names, name)
	}
	return c, names, nil
}

// treeDepth computes the depth of node i in a complete b-ary tree laid out
// in breadth-first order (node 0 is the root).
func treeDepth(i, b int) int {
	depth := 0
	for i > 0 {
		i = (i - 1) / b
		depth++
	}
	return depth
}

// Close shuts down all components.
func (c *Cluster) Close() {
	for i := len(c.standbys) - 1; i >= 0; i-- {
		_ = c.standbys[i].Close()
	}
	for _, s := range c.servers {
		_ = s.Close()
	}
	for _, svc := range c.services {
		_ = svc.Close()
	}
	for _, n := range c.Nodes {
		_ = n.Close()
	}
	_ = c.TR.Close()
}

// Settle drains every server's delivery pipeline, blocking until all
// enqueued notifications are delivered (or parked for detached clients).
// The memory transport runs handlers synchronously, so after a Build
// returns, every matching service has already enqueued — Settle is the only
// synchronisation experiments need before reading notification counts.
func (c *Cluster) Settle(ctx context.Context) {
	for _, name := range c.ServerNames() {
		_ = c.services[name].DrainDeliveries(ctx)
	}
}

// ServerAddr is the canonical transport address of a named server.
func ServerAddr(name string) string { return "gs://" + name }

// ReplAddr is the replication-stream address of a named server; its
// standby is named name+"b", so the standby's stream end is
// ReplAddr(name+"b") and its serving address ServerAddr(name+"b").
func ReplAddr(name string) string { return "repl://" + name }

// AddServer creates a Greenstone server with alerting, registered at the
// GDS node with index nodeIdx (-1 picks round-robin by current count).
func (c *Cluster) AddServer(name string, nodeIdx int) (*greenstone.Server, error) {
	return c.AddServerWith(name, nodeIdx, nil)
}

// AddServerWith is AddServer with a hook to adjust the assembled core
// configuration before the service is built (experiments inject QoS
// controllers or delivery-pipeline settings).
func (c *Cluster) AddServerWith(name string, nodeIdx int, mutate func(*core.Config)) (*greenstone.Server, error) {
	if _, dup := c.servers[name]; dup {
		return nil, fmt.Errorf("sim: server %q already exists", name)
	}
	if nodeIdx < 0 {
		nodeIdx = len(c.servers) % len(c.Nodes)
	}
	if nodeIdx >= len(c.Nodes) {
		return nil, fmt.Errorf("sim: node index %d out of range", nodeIdx)
	}
	addr := ServerAddr(name)
	gdsCli := gds.NewClient(name, addr, c.nodeAddrs[nodeIdx], c.Net)
	store := collection.NewStore(name)
	cfg := core.Config{
		ServerName: name,
		ServerAddr: addr,
		Transport:  c.Net,
		GDS:        gdsCli,
		Store:      store,
		Matcher:    filter.NewEqualityPreferred(),
		// The memory transport delivers synchronously, so content-routing
		// tables are warm the moment an advertisement returns: no flood
		// warm-up window needed.
		ContentWarmup: -1,
		// The simulation is driven, not ticked: intervals beyond any run
		// idle the pipeline's flush and retry tickers, so a notification
		// reaches its sink on Settle, a full batch or a re-attach — never
		// at a moment the scheduler picks.
		DeliveryConfig: &delivery.Config{FlushInterval: time.Hour, RetryInterval: time.Hour},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := greenstone.NewServer(greenstone.ServerConfig{
		Name:      name,
		Addr:      addr,
		Transport: c.Net,
		Store:     store,
		Alerting:  svc,
		Resolver:  gdsCli,
	})
	if err != nil {
		return nil, err
	}
	if err := gdsCli.Register(context.Background()); err != nil {
		_ = srv.Close()
		return nil, err
	}
	c.servers[name] = srv
	c.services[name] = svc
	c.clients[name] = gdsCli
	c.nodeOf[name] = nodeIdx
	c.notifiers[name] = make(map[string]*core.MemoryNotifier)
	return srv, nil
}

// AddStandby attaches a warm standby to a server: a passive alerting
// service and Greenstone server under the primary's name at the address
// ServerAddr(primary+"b"), a replica.Primary streaming the server's state
// and a replica.Standby applying it — all over Net, so armed fault rules
// reach the stream. The standby registers nowhere until promotion, which
// re-registers the inherited name at the primary's GDS node. mutate, if
// non-nil, adjusts the standby service's configuration; its Tracer and Log
// also serve the replication stream. The caller Joins (and later Promotes)
// the returned standby, whose Service() is the standby's alerting service;
// Cluster.Close closes everything built here.
func (c *Cluster) AddStandby(primary string, mutate func(*core.Config)) (*replica.Standby, error) {
	svc := c.services[primary]
	if svc == nil {
		return nil, fmt.Errorf("sim: unknown server %q", primary)
	}
	addr := ServerAddr(primary + "b")
	gdsCli := gds.NewClient(primary, addr, c.nodeAddrs[c.nodeOf[primary]], c.Net)
	store := collection.NewStore(primary)
	cfg := core.Config{
		ServerName:     primary,
		ServerAddr:     addr,
		Transport:      c.Net,
		GDS:            gdsCli,
		Store:          store,
		ContentWarmup:  -1,
		DeliveryConfig: &delivery.Config{FlushInterval: time.Hour, RetryInterval: time.Hour},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	// Each component is handed to Close as soon as it exists, so an error
	// part-way leaks nothing.
	standby, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	c.standbys = append(c.standbys, standby)
	srv, err := greenstone.NewServer(greenstone.ServerConfig{
		Name:      primary,
		Addr:      addr,
		Transport: c.Net,
		Store:     store,
		Alerting:  standby,
	})
	if err != nil {
		return nil, err
	}
	c.standbys = append(c.standbys, srv)
	prim, err := replica.NewPrimary(replica.PrimaryConfig{
		Service:    svc,
		Transport:  c.Net,
		ListenAddr: ReplAddr(primary),
	})
	if err != nil {
		return nil, err
	}
	c.standbys = append(c.standbys, prim)
	recv, err := replica.NewStandby(replica.StandbyConfig{
		Service:     standby,
		Transport:   c.Net,
		ListenAddr:  ReplAddr(primary + "b"),
		PrimaryAddr: ReplAddr(primary),
		GDS:         gdsCli,
		Tracer:      cfg.Tracer,
		Log:         cfg.Log.Recorder().For("replica"),
	})
	if err != nil {
		return nil, err
	}
	c.standbys = append(c.standbys, recv)
	return recv, nil
}

// Resolve looks up a server name through another server's directory client
// (the DNS-like naming service of paper §4.1).
func (c *Cluster) Resolve(ctx context.Context, from, target string) (string, error) {
	cli := c.clients[from]
	if cli == nil {
		return "", fmt.Errorf("sim: unknown server %q", from)
	}
	return cli.Resolve(ctx, target)
}

// Server returns a server by name.
func (c *Cluster) Server(name string) *greenstone.Server { return c.servers[name] }

// Service returns a server's alerting service.
func (c *Cluster) Service(name string) *core.Service { return c.services[name] }

// ServerNames lists servers in insertion-independent sorted order.
func (c *Cluster) ServerNames() []string {
	out := make([]string, 0, len(c.servers))
	for n := range c.servers {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Notifier returns (creating on demand) the recording sink for a client at
// a server, registering it with the alerting service.
func (c *Cluster) Notifier(server, client string) *core.MemoryNotifier {
	sinks := c.notifiers[server]
	if sinks == nil {
		sinks = make(map[string]*core.MemoryNotifier)
		c.notifiers[server] = sinks
	}
	sink, ok := sinks[client]
	if !ok {
		sink = core.NewMemoryNotifier()
		sinks[client] = sink
		if svc := c.services[server]; svc != nil {
			svc.RegisterNotifier(client, sink)
		}
	}
	return sink
}

// Notifications returns every notification recorded for a client at a
// server.
func (c *Cluster) Notifications(server, client string) []core.Notification {
	if sinks := c.notifiers[server]; sinks != nil {
		if sink := sinks[client]; sink != nil {
			return sink.All()
		}
	}
	return nil
}

// FlushRetries resends what waits in every server's destination mailboxes
// (after healing a partition), returning how many messages left them.
func (c *Cluster) FlushRetries(ctx context.Context) int {
	total := 0
	for _, name := range c.ServerNames() {
		svc := c.services[name]
		before := svc.PendingForwards()
		svc.ResumeForwards()
		_ = svc.DrainDeliveries(ctx)
		total += before - svc.PendingForwards()
	}
	return total
}

// PartitionServers cuts the GS-network link between two servers (their
// direct server-to-server traffic). GDS connectivity is unaffected. The
// memory transport identifies the sender by its logical name and the
// receiver by its address, so both directed pairs are cut.
func (c *Cluster) PartitionServers(a, b string) {
	c.TR.Partition(a, ServerAddr(b))
	c.TR.Partition(b, ServerAddr(a))
}

// HealServers restores the link between two servers.
func (c *Cluster) HealServers(a, b string) {
	c.TR.Heal(a, ServerAddr(b))
	c.TR.Heal(b, ServerAddr(a))
}

// PartitionGDSLink cuts the directory link between two GDS nodes (by node
// id, e.g. "gds0"), severing the subtree below the lower node from the
// rest of the tree: flooded events and upward registrations crossing the
// link are blocked (best-effort delivery — the paper's §6 GDS loses them).
func (c *Cluster) PartitionGDSLink(a, b string) {
	c.TR.Partition(a, "gds://"+b)
	c.TR.Partition(b, "gds://"+a)
}

// HealGDSLink restores a directory link cut by PartitionGDSLink.
func (c *Cluster) HealGDSLink(a, b string) {
	c.TR.Heal(a, "gds://"+b)
	c.TR.Heal(b, "gds://"+a)
}

// NewReceptionist builds a receptionist connected to the named hosts.
func (c *Cluster) NewReceptionist(name string, hosts ...string) *greenstone.Receptionist {
	r := greenstone.NewReceptionist(name, c.Net)
	for _, h := range hosts {
		r.Connect(h, ServerAddr(h))
	}
	return r
}

// RemoteNotifier builds a notifier that pushes MsgNotify envelopes from a
// server to a client address over the cluster transport.
func (c *Cluster) RemoteNotifier(server, clientAddr string) core.Notifier {
	return core.NewRemoteNotifier(server, clientAddr, c.Net)
}

// vclock is the experiments' virtual clock for the health and logging
// planes: it moves only when Advance is called, so every timestamp it hands
// out is a pure function of the seed. Pipeline workers may log (and so read
// it) while the driving goroutine advances it, hence the mutex.
type vclock struct {
	mu  sync.Mutex
	now time.Time
}

func newVClock() *vclock { return &vclock{now: time.Unix(1_700_000_000, 0)} }

// Now reads the clock.
func (c *vclock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock on by d and returns the new time.
func (c *vclock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}
