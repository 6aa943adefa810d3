// Command gs-server runs one Greenstone server with the alerting service
// integrated (paper §3/§4) over HTTP. The server registers with a GDS node
// for naming and event flooding.
//
// With -demo, the server creates a sample public collection and rebuilds it
// on the given interval so subscribers receive a steady stream of events:
//
//	gs-server -name Hamilton -addr 127.0.0.1:8001 -gds 127.0.0.1:7001 \
//	          -demo -demo-interval 10s
//
// Distributed collections: -sub Host=Collection adds a remote
// sub-collection reference to the demo collection, which triggers auxiliary
// profile forwarding to that host (paper §4.2):
//
//	gs-server -name Hamilton ... -demo -sub London=E
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/ops"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// options is every gs-server flag, parsed straight into the config structs
// the components take.
type options struct {
	name, addr, gdsAddr string
	mode                core.RoutingMode

	demo         bool
	demoName     string
	demoInterval time.Duration
	subs         string

	delivery delivery.Config
	qosOn    bool
	qos      qos.Config

	replListen, replicaOf, promoteAddr string

	healthMeta, readyGDS, readyRepl bool
	ops                             ops.Config
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("gs-server", flag.ContinueOnError)
	fs.StringVar(&o.name, "name", "Hamilton", "server name (network-internal, resolved via the GDS)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8001", "listen address")
	fs.StringVar(&o.gdsAddr, "gds", "127.0.0.1:7001", "GDS node address to register with")
	routing := fs.String("routing", "broadcast", "GDS dissemination mode: broadcast, multicast or content (see docs/ROUTING.md)")
	fs.BoolVar(&o.demo, "demo", false, "create a demo collection and rebuild it periodically")
	fs.StringVar(&o.demoName, "demo-name", "Demo", "demo collection name")
	fs.DurationVar(&o.demoInterval, "demo-interval", 15*time.Second, "demo rebuild interval")
	fs.StringVar(&o.subs, "sub", "", "comma-separated remote sub-collection refs Host=Collection for the demo collection")

	// Delivery pipeline knobs (internal/delivery).
	fs.IntVar(&o.delivery.Shards, "delivery-shards", delivery.DefaultShards, "delivery worker shards (clients hash onto shards)")
	fs.IntVar(&o.delivery.QueueDepth, "delivery-queue-depth", delivery.DefaultQueueDepth, "per-shard, per-class delivery queue depth; a full queue blocks the publisher")
	fs.IntVar(&o.delivery.BatchSize, "delivery-batch", delivery.DefaultBatchSize, "notifications per delivery batch (flush on size)")
	fs.DurationVar(&o.delivery.FlushInterval, "delivery-flush-interval", delivery.DefaultFlushInterval, "max delivery batching latency (flush on interval)")
	fs.StringVar(&o.delivery.Dir, "mailbox-dir", "", "directory for durable per-user mailboxes (WAL); empty = memory only")
	fs.IntVar(&o.delivery.MailboxCap, "mailbox-cap", delivery.DefaultMailboxCap, "max parked notifications per user")

	// QoS admission-control knobs (internal/qos, docs/QOS.md).
	fs.BoolVar(&o.qosOn, "qos", false, "enable QoS admission control: per-subscriber and per-collection token-bucket quotas with graceful degradation (normal defers, bulk coalesces into digests; realtime is never shed)")
	fs.Float64Var(&o.qos.SubscriberRate, "qos-subscriber-rate", 100, "sustained notifications/sec each subscriber may receive across non-realtime classes")
	fs.IntVar(&o.qos.SubscriberBurst, "qos-subscriber-burst", 200, "per-subscriber token-bucket capacity; 0 disables the subscriber quota dimension")
	fs.Float64Var(&o.qos.CollectionRate, "qos-collection-rate", 1000, "sustained events/sec one collection may fan out through non-realtime subscriptions")
	fs.IntVar(&o.qos.CollectionBurst, "qos-collection-burst", 2000, "per-collection token-bucket capacity; 0 disables the collection quota dimension")
	fs.DurationVar(&o.qos.BulkDigestEvery, "qos-bulk-digest", qos.DefaultBulkDigestEvery, "coalescing period for over-quota bulk traffic: shed bulk notifications accrue and flush as one digest per period")

	// Replication knobs (internal/replica, docs/REPLICATION.md).
	fs.StringVar(&o.replListen, "replica-listen", "", "replication endpoint to listen on (host:port); primaries accept standby joins here, standbys receive the stream")
	fs.StringVar(&o.replicaOf, "replica-of", "", "run as standby of the primary whose replication endpoint is this address (requires -replica-listen); the server inherits -name, stays unregistered and passive, and serves only after promotion")
	fs.StringVar(&o.promoteAddr, "promote", "", "one-shot: order the standby at this replication endpoint to promote to serving primary, then exit")

	// The ops plane (internal/ops, docs/OBSERVABILITY.md): the shared flags,
	// then the ones only a server with a publish path has.
	o.ops.RegisterFlags(fs)
	fs.Float64Var(&o.ops.TraceSample, "trace-sample", 0, "head-sampling rate for end-to-end event traces in [0,1]: fraction of publishes recorded as span trees, served at GET /traces on the ops endpoint; 0 disables (with -trace-slow 0)")
	fs.DurationVar(&o.ops.TraceSlow, "trace-slow", 0, "tail-retain threshold: publish roots slower than this are traced even when head sampling passed them over; 0 disables tail retention")
	fs.Float64Var(&o.ops.LogRateLimit, "log-stderr-rate", 50, "per-component stderr lines/sec cap (token bucket; suppressed lines stay ring-retained, counted in gsalert_logging_suppressed_total); 0 disables the limiter")
	fs.BoolVar(&o.healthMeta, "health-alerts", true, "publish each health state transition as a health-alert event into the pipeline (the dogfood; subscribe with event.type = \"health-alert\")")
	fs.BoolVar(&o.readyGDS, "ready-gds", true, "gate /readyz on successful GDS registration (serving roles only)")
	fs.BoolVar(&o.readyRepl, "ready-standby", true, "on a standby, gate /readyz on being snapshot-synced with a reachable primary (promotion flips the gate to serving-side checks)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	// Enum-valued flags and cross-flag constraints, reported like the flag
	// package's own errors.
	err := func() (err error) {
		if o.replicaOf != "" && o.replListen == "" {
			return errors.New("-replica-of requires -replica-listen")
		}
		o.mode, err = core.ParseRoutingMode(*routing)
		return err
	}()
	if err != nil {
		fmt.Fprintf(fs.Output(), "gs-server: %v\n", err)
		return nil, err
	}
	o.ops.Trace = o.ops.TraceSample > 0 || o.ops.TraceSlow > 0
	return o, nil
}

func run(args []string) int {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2 // already reported on stderr, with the usage
	}
	if o.promoteAddr != "" {
		return runPromote(o.promoteAddr)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	s, err := assemble(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: %v\n", err)
		return 1
	}
	defer s.close()
	fmt.Printf("gs-server %s listening on %s\n", o.name, o.addr)
	<-ctx.Done()
	s.shutdown()
	return 0
}

// server is one assembled gs-server: what run() waits on and shuts down,
// and the handles the binary's own test drives.
type server struct {
	o        *options
	plane    *ops.Plane
	pipeline *delivery.Pipeline
	svc      *core.Service
	gdsCli   *gds.Client
	srv      *greenstone.Server
	recv     *replica.Standby // nil unless -replica-of

	// gdsRegistered feeds the /readyz gds-registered check.
	gdsRegistered atomic.Bool
	closers       []func()
}

func (s *server) onClose(fn func()) { s.closers = append(s.closers, fn) }

// close releases everything assemble built, newest first.
func (s *server) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// stats is the /stats payload, also embedded in flight bundles.
func (s *server) stats() any {
	return struct {
		Service  core.ServiceStats
		Delivery delivery.Snapshot
	}{s.svc.Stats(), s.pipeline.Metrics().Snapshot()}
}

// publishTransition is the -health-alerts dogfood: every health state
// transition goes back into the pipeline as a health-alert event.
func (s *server) publishTransition(tr health.Transition) {
	if err := s.svc.PublishHealthAlert(context.Background(), tr.Alert()); err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: health alert publish: %v\n", err)
	}
}

// assemble builds and starts one server from parsed flags: the ops plane
// first (its tracer and loggers thread through everything else), then
// pipeline → service → protocol listener → replication role → registry
// wiring → ops endpoint. ctx bounds the background loops it starts.
func assemble(ctx context.Context, o *options) (_ *server, err error) {
	s := &server{o: o}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	o.ops.Service, o.ops.Stats, o.ops.LogSink = o.name, s.stats, os.Stderr
	if o.healthMeta {
		o.ops.OnTransition = s.publishTransition
	}
	if s.plane, err = ops.Start(o.ops); err != nil {
		return nil, err
	}
	tr := transport.NewHTTP()
	s.onClose(func() { _ = tr.Close() })

	dcfg := o.delivery
	s.plane.WireDelivery(&dcfg)
	if s.pipeline, err = delivery.NewPipeline(dcfg); err != nil {
		return nil, fmt.Errorf("delivery pipeline: %w", err)
	}
	s.onClose(func() { _ = s.pipeline.Close() })
	if n := s.pipeline.Metrics().Recovered.Value(); dcfg.Dir != "" && n > 0 {
		fmt.Printf("gs-server %s: recovered %d undelivered notifications from %s\n", o.name, n, dcfg.Dir)
	}

	var ctrl *qos.Controller
	if o.qosOn {
		ctrl = qos.NewController(o.qos)
		fmt.Printf("gs-server %s admission control on (subscriber %g/s burst %d, collection %g/s burst %d, bulk digest every %s)\n",
			o.name, o.qos.SubscriberRate, o.qos.SubscriberBurst, o.qos.CollectionRate, o.qos.CollectionBurst, o.qos.BulkDigestEvery)
	}
	s.gdsCli = gds.NewClient(o.name, o.addr, o.gdsAddr, tr)
	store := collection.NewStore(o.name)
	ccfg := core.Config{
		ServerName: o.name,
		ServerAddr: o.addr,
		Transport:  tr,
		GDS:        s.gdsCli,
		Store:      store,
		Delivery:   s.pipeline,
		QoS:        ctrl,
	}
	s.plane.WireCore(&ccfg)
	if s.svc, err = core.New(ccfg); err != nil {
		return nil, err
	}
	s.onClose(func() { _ = s.svc.Close() })
	// Composite profiles need the periodic tick for digest flushes and
	// window garbage collection.
	if err = s.svc.StartCompositeTicker(time.Second); err != nil {
		return nil, fmt.Errorf("composite ticker: %w", err)
	}
	s.srv, err = greenstone.NewServer(greenstone.ServerConfig{
		Name:      o.name,
		Addr:      o.addr,
		Transport: tr,
		Store:     store,
		Alerting:  s.svc,
		Resolver:  s.gdsCli,
	})
	if err != nil {
		return nil, err
	}
	s.onClose(func() { _ = s.srv.Close() })

	if o.replicaOf != "" {
		if err = s.standBy(ctx, tr); err != nil {
			return nil, err
		}
	} else if err = s.serve(ctx, tr); err != nil {
		return nil, err
	}

	reg := s.plane.Registry
	obs.RegisterService(reg, s.svc.Stats)
	obs.RegisterDelivery(reg, s.pipeline)
	if ctrl != nil {
		obs.RegisterQoS(reg, ctrl)
	}
	obs.RegisterHTTPTransport(reg, tr)
	obs.RegisterGoRuntime(reg)
	if eng := s.plane.Health; eng != nil {
		eng.AddReadiness("pipeline", func() error { return nil })
		if o.readyGDS {
			eng.AddReadiness("gds-registered", func() error {
				// A standby never registers itself: the primary owns the name
				// while it stands by, and promotion registers it.
				if s.recv == nil && !s.gdsRegistered.Load() {
					return errors.New("not registered with the GDS")
				}
				return nil
			})
		}
		if s.recv != nil && o.readyRepl {
			// Passes once promoted: the gds check takes over.
			eng.AddReadiness("standby-caught-up", s.recv.Ready)
		}
	}
	s.onClose(s.plane.Close)
	if err = s.plane.Serve(); err != nil {
		return nil, err
	}

	// The retry queue delivers deferred aux-profile traffic in the
	// background (paper §7 reconnection semantics).
	if err = s.svc.Retry().Start(2 * time.Second); err != nil {
		return nil, fmt.Errorf("retry queue: %w", err)
	}
	s.onClose(s.svc.Retry().Stop)
	if o.demo && s.recv == nil {
		if err = runDemo(ctx, s.srv, o.demoName, o.subs, o.demoInterval); err != nil {
			return nil, fmt.Errorf("demo: %w", err)
		}
	}
	return s, nil
}

// standBy runs the standby role. A standby never registers and never
// advertises: the primary owns the name until promotion (`gs-server
// -promote <addr>`), which registers and re-issues the routing mode itself.
func (s *server) standBy(ctx context.Context, tr transport.Transport) error {
	o := s.o
	rcfg := replica.StandbyConfig{
		Service:     s.svc,
		Transport:   tr,
		ListenAddr:  o.replListen,
		PrimaryAddr: o.replicaOf,
		GDS:         s.gdsCli,
	}
	s.plane.WireStandby(&rcfg)
	recv, err := replica.NewStandby(rcfg)
	if err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	s.recv = recv
	s.onClose(func() { _ = recv.Close() })
	// Join with retry (the primary may not be up yet), then heartbeat
	// forever: a probe that finds the stream broken, the primary restarted,
	// or positions diverged rejoins via snapshot resync. Without the loop a
	// single stream break would silently freeze the standby until the
	// operator noticed.
	go func() {
		joined := false
		for !recv.Promoted() {
			opCtx, opCancel := context.WithTimeout(ctx, 10*time.Second)
			if !joined {
				if err := recv.Join(opCtx); err == nil {
					joined = true
					fmt.Printf("gs-server %s standing by for %s (stream at %s)\n", o.name, o.replicaOf, o.replListen)
				} else {
					fmt.Fprintf(os.Stderr, "gs-server: standby join: %v (retrying)\n", err)
				}
			} else if err := recv.Heartbeat(opCtx); err != nil {
				fmt.Fprintf(os.Stderr, "gs-server: standby heartbeat: %v (retrying)\n", err)
			}
			opCancel()
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Second):
			}
		}
	}()
	return nil
}

// serve runs the serving role: register with the directory, enter the
// dissemination mode, and with -replica-listen accept a standby.
func (s *server) serve(ctx context.Context, tr transport.Transport) error {
	o := s.o
	regCtx, regCancel := context.WithTimeout(ctx, 10*time.Second)
	err := s.gdsCli.Register(regCtx)
	regCancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: GDS registration failed (continuing solitary): %v\n", err)
	} else {
		s.gdsRegistered.Store(true)
		fmt.Printf("gs-server %s registered with GDS at %s\n", o.name, o.gdsAddr)
	}

	// Dissemination mode after registration: multicast joins groups and
	// content routing advertises the profile digest through the GDS node.
	if o.mode != core.RouteBroadcast {
		modeCtx, modeCancel := context.WithTimeout(ctx, 10*time.Second)
		err = s.svc.SetRoutingMode(modeCtx, o.mode)
		modeCancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gs-server: routing mode %s: %v (reverting to broadcast)\n", o.mode, err)
			if err := s.svc.SetRoutingMode(context.Background(), core.RouteBroadcast); err != nil {
				fmt.Fprintf(os.Stderr, "gs-server: revert to broadcast: %v\n", err)
			}
		} else {
			fmt.Printf("gs-server %s disseminating via %s routing\n", o.name, o.mode)
		}
	}

	if o.replListen != "" {
		// Primary role: accept a standby and stream every state change to
		// it (docs/REPLICATION.md).
		prim, err := replica.NewPrimary(replica.PrimaryConfig{
			Service:    s.svc,
			Transport:  tr,
			ListenAddr: o.replListen,
		})
		if err != nil {
			return fmt.Errorf("replication endpoint: %w", err)
		}
		s.onClose(func() { _ = prim.Close() })
		fmt.Printf("gs-server %s accepting a standby at %s\n", o.name, o.replListen)
	}
	return nil
}

// shutdown is the graceful stop: stop accepting publishes first (close the
// protocol listener and unregister from the directory so peers stop routing
// here), then drain the delivery pipeline and flush the retry queue —
// spooled aux-profile ops would otherwise wait out a full partition cycle,
// and in-flight notifications would sit queued until the next start's WAL
// recovery. close() then compacts the mailboxes.
func (s *server) shutdown() {
	fmt.Println("gs-server: shutting down — draining deliveries and flushing spooled ops")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = s.srv.Close()
	if s.recv == nil {
		_ = s.gdsCli.Unregister(ctx)
	}
	if err := s.svc.DrainDeliveries(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: drain on shutdown: %v (undelivered alerts stay in their mailboxes)\n", err)
	}
	if n := s.svc.Retry().Flush(ctx, true); n > 0 {
		fmt.Printf("gs-server: flushed %d spooled server-to-server ops\n", n)
	}
	fmt.Println("gs-server: shutdown complete")
}

// runPromote orders the standby at addr to promote itself, then exits:
// `gs-server -promote 127.0.0.1:9002` is the operator's failover switch.
func runPromote(addr string) int {
	tr := transport.NewHTTP()
	defer func() { _ = tr.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	env, err := protocol.NewEnvelope("gs-promote", protocol.MsgReplPromote, &protocol.ReplPromote{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: promote: %v\n", err)
		return 1
	}
	if err := transport.SendOneWay(ctx, tr, addr, env); err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: promote %s: %v\n", addr, err)
		return 1
	}
	fmt.Printf("standby at %s promoted\n", addr)
	return 0
}

// runDemo creates the demo collection and starts the rebuild loop.
func runDemo(ctx context.Context, srv *greenstone.Server, collName, subsFlag string, interval time.Duration) error {
	cfg := collection.Config{
		Name:        collName,
		Title:       "Demo Collection",
		Public:      true,
		IndexFields: []string{"dc.Title", "dc.Creator"},
		Classifiers: []string{"dc.Title"},
	}
	for _, ref := range strings.Split(subsFlag, ",") {
		ref = strings.TrimSpace(ref)
		if ref == "" {
			continue
		}
		host, sub, ok := strings.Cut(ref, "=")
		if !ok {
			return fmt.Errorf("bad -sub entry %q (want Host=Collection)", ref)
		}
		cfg.Subs = append(cfg.Subs, collection.SubRef{Host: host, Name: sub})
	}
	if _, err := srv.AddCollection(ctx, cfg); err != nil {
		return err
	}
	build := func(round int) {
		docs := demoDocs(srv.Name(), round)
		if _, _, err := srv.Build(ctx, collName, docs); err != nil {
			fmt.Fprintf(os.Stderr, "gs-server: demo rebuild: %v\n", err)
			return
		}
		fmt.Printf("rebuilt %s.%s (round %d, %d docs)\n", srv.Name(), collName, round, len(docs))
	}
	build(0)
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		round := 1
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				build(round)
				round++
			}
		}
	}()
	return nil
}

func demoDocs(host string, round int) []*collection.Document {
	docs := make([]*collection.Document, 0, 6)
	for i := 0; i < 5; i++ {
		docs = append(docs, &collection.Document{
			ID: fmt.Sprintf("%s-doc-%d", host, i),
			Metadata: map[string][]string{
				"dc.Title":   {fmt.Sprintf("Report %d from %s", i, host)},
				"dc.Creator": {fmt.Sprintf("Author %d", i%3)},
			},
			Content: fmt.Sprintf("report %d body, revision %d, topics digital library alerting", i, round),
			MIME:    "text/plain",
		})
	}
	// One fresh document per round so subscribers see documents-added.
	docs = append(docs, &collection.Document{
		ID:       fmt.Sprintf("%s-new-%d", host, round),
		Metadata: map[string][]string{"dc.Title": {fmt.Sprintf("Bulletin %d", round)}},
		Content:  fmt.Sprintf("bulletin issued in round %d", round),
		MIME:     "text/plain",
	})
	return docs
}
