package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/chaos"
	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// E16 — scale & chaos soak. A zipfian subscriber population (100k–1M
// profiles, mixed primitive/composite, QoS-classed) is spread across the
// tree while a publisher drives rounds of zipf-topic events. A chaos
// schedule runs against the workload: the replicated server's standby is
// degraded and healed, a directory subtree is partitioned and healed, the
// replicated primary is killed and its standby promoted, dissemination
// modes flip mid-run, and latency is injected into the alerting traffic.
// The run is repeated with an empty schedule (the failure-free baseline)
// and the PR 4/5 invariants must survive the composition:
//
//   - realtime is loss-free: the realtime subscribers' delivered multisets
//     are identical to the baseline, through the kill and the partitions;
//   - normal is deferred-not-lost: over-quota traffic parks durably
//     (inherited across the promotion) and the final count equals the
//     event count;
//   - promotion is zero-loss: the killed server's clients see the same
//     multiset the baseline run delivered, pre-kill + post-promote;
//   - bulk coalesces exactly once: the shed events arrive as one digest;
//   - nothing in any pipeline counts as dropped (actual loss is zero).
//
// Per-class delivery-latency SLOs are evaluated cluster-wide through
// merged metrics.LatencyHistogram buckets. The three observed servers
// (publisher, QoS-observed, replicated) are pinned to the root directory
// node, so partition faults may cut any directory link without
// disconnecting the invariant-bearing paths — everything else is ballast
// and takes the faults (paper §6: flooding is best-effort).

// The well-known soak roles. Ballast servers fill out the tree.
const (
	// SoakPublisher publishes every round's events.
	SoakPublisher = "C000"
	// SoakQoSServer hosts the rt/nm/blk observed subscribers (E15's cast)
	// behind burst-only quotas. It is never killed: bulk-digest engine
	// state is not replicated (docs/REPLICATION.md), so digest-exactly-once
	// is asserted where the engine survives.
	SoakQoSServer = "C001"
	// SoakReplServer is the replicated server (E14's cast): an attached
	// realtime client and a detached normal client whose parked alerts must
	// survive the promotion.
	SoakReplServer = "C002"
)

// The soak's fixed shape: a 16-server tree, 12 rounds of 4 events
// published in broadcast mode (flips may change it), and a burst-only
// quota of 8 per subscriber on the observed servers.
const (
	soakServers        = 16
	soakRounds         = 12
	soakEventsPerRound = 4
	soakEvents         = soakRounds * soakEventsPerRound
	soakBurst          = 8
	soakMode           = core.RouteBroadcast
)

// soakSLO bounds per-class p99 delivery latency (sanity bounds: latencies
// are wall-clock and include parked dwell time).
var soakSLO = map[qos.Class]time.Duration{
	qos.ClassRealtime: 30 * time.Second,
	qos.ClassNormal:   5 * time.Minute,
	qos.ClassBulk:     10 * time.Minute,
}

// ChaosSoakConfig shapes an E16 run.
type ChaosSoakConfig struct {
	// Seed drives the cluster, the population and the injected faults.
	Seed int64
	// Load shapes the ballast population (Collection is filled in).
	Load LoadConfig
	// Schedule is the chaos to apply; the baseline run ignores it.
	Schedule chaos.Schedule
	// TraceSample head-samples end-to-end event traces at this rate in
	// (0,1]; the chaos run's traced notify chains produce the per-stage
	// latency attribution. 0 disables tracing.
	TraceSample float64
	// FlightRecorder (E19) additionally threads a shared structured-logging
	// recorder through every subsystem — core services, delivery pipelines,
	// directory nodes, the replica standby and the health engine — on the
	// health engine's virtual clock, arms a logging.FlightRecorder over its
	// rings, and registers the standby's stats with the health registry so
	// the soak-promotion critical rule can observe the kill-primary fault.
	// The resulting critical transition auto-captures a post-mortem bundle.
	FlightRecorder bool
}

// soakHealthRules is the rule set the soak's health engine evaluates: the
// burst-only quota guarantees deferrals once the subscriber budget is
// spent, so the deferred rate rises mid-run and drains to zero over the
// quiet tail — a deterministic fire→clear cycle.
const soakHealthRules = `
rule soak-deferred-rate {
	component = qos
	severity = warning
	expr = rate(gsalert_qos_deferred_total[30s]) > 0.05
}
`

// soakHealthTick is the virtual time each soak round (and each quiet tail
// tick) advances the health clock by.
const soakHealthTick = 10 * time.Second

// DefaultChaosSoakConfig is the acceptance-bar configuration: 100k live
// profiles and a schedule exercising the full fault vocabulary.
func DefaultChaosSoakConfig(seed int64) ChaosSoakConfig {
	return ChaosSoakConfig{
		Seed:     seed,
		Load:     LoadConfig{Seed: seed, Profiles: 100_000, Topics: 500},
		Schedule: DefaultSoakSchedule(),
	}
}

// DefaultSoakSchedule is the canonical E16 schedule over the soak's 12
// rounds: degrade the standby, cut the directory subtree under gds3 off
// (the link to its parent gds0 is severed), heal both, kill the replicated
// primary, inject alerting-path latency, flip modes.
func DefaultSoakSchedule() chaos.Schedule {
	var s chaos.Schedule
	s.Add(chaos.Fault{At: 1, Kind: chaos.KindSlowStandby, Target: SoakReplServer, DropRate: 1})
	s.Add(chaos.Fault{At: 2, Kind: chaos.KindPartition, A: "gds0", B: "gds3"})
	s.Add(chaos.Fault{At: 4, Kind: chaos.KindHealStandby, Target: SoakReplServer})
	s.Add(chaos.Fault{At: 5, Kind: chaos.KindHeal, A: "gds0", B: "gds3"})
	s.Add(chaos.Fault{At: 6, Kind: chaos.KindKillPrimary, Target: SoakReplServer})
	s.Add(chaos.Fault{At: 7, Kind: chaos.KindInject, TypePrefix: "gs.", Latency: 2 * time.Millisecond})
	s.Add(chaos.Fault{At: 8, Kind: chaos.KindFlipMode, Target: "multicast"})
	s.Add(chaos.Fault{At: 9, Kind: chaos.KindClearInject})
	s.Add(chaos.Fault{At: 10, Kind: chaos.KindFlipMode, Target: "content"})
	return s
}

// soakRun is one assembled soak deployment; it implements chaos.Fabric.
type soakRun struct {
	cfg ChaosSoakConfig
	c   *Cluster
	ctx context.Context

	mode core.RoutingMode

	recv *replica.Standby

	// serving overrides name → service after a promotion.
	serving map[string]*core.Service

	// rattSinks accumulates the attached realtime client's sinks across
	// attach generations (a fresh sink is registered after promotion).
	rattSinks []*core.MemoryNotifier

	injectRules []transport.FaultRule
	promoted    bool
	inherited   int
}

var _ chaos.Fabric = (*soakRun)(nil)

func (r *soakRun) servingFor(name string) *core.Service {
	if svc, ok := r.serving[name]; ok {
		return svc
	}
	return r.c.Service(name)
}

func (r *soakRun) settle(ctx context.Context) {
	r.c.Settle(ctx)
	_ = r.recv.Service().DrainDeliveries(ctx)
}

// KillPrimary implements chaos.Fabric: the primary's address vanishes and
// the standby promotes into the inherited name at the current mode.
func (r *soakRun) KillPrimary(ctx context.Context, server string) error {
	if server != SoakReplServer {
		return fmt.Errorf("sim: soak can only kill %s, not %q", SoakReplServer, server)
	}
	if r.promoted {
		return fmt.Errorf("sim: %s already killed", server)
	}
	r.c.TR.SetNodeDown(ServerAddr(server), true)
	if err := r.recv.Promote(ctx, r.mode); err != nil {
		return err
	}
	r.promoted = true
	standby := r.recv.Service()
	r.serving[server] = standby
	// What the standby inherited parked for the detached normal client.
	r.inherited = standby.Delivery().Pending("noff")
	// The attached realtime client re-attaches to the promoted standby.
	sink := core.NewMemoryNotifier()
	standby.RegisterNotifier("ratt", sink)
	r.rattSinks = append(r.rattSinks, sink)
	return nil
}

// Partition and Heal implement chaos.Fabric over directory links.
func (r *soakRun) Partition(a, b string) error {
	r.c.PartitionGDSLink(a, b)
	return nil
}

func (r *soakRun) Heal(a, b string) error {
	r.c.HealGDSLink(a, b)
	return nil
}

// SlowStandby implements chaos.Fabric: degrade the replication stream to
// the server's standby.
func (r *soakRun) SlowStandby(server string, drop float64, latency time.Duration) error {
	if server != SoakReplServer {
		return fmt.Errorf("sim: soak has no standby for %q", server)
	}
	r.c.Inject.AddRule(transport.FaultRule{
		To: ReplAddr(server + "b"), DropRate: drop, ExtraLatency: latency,
	})
	return nil
}

// HealStandby implements chaos.Fabric: restore the replication link and
// force a catch-up heartbeat (the lagging standby resyncs via snapshot).
func (r *soakRun) HealStandby(ctx context.Context, server string) error {
	if server != SoakReplServer {
		return fmt.Errorf("sim: soak has no standby for %q", server)
	}
	r.c.Inject.RemoveRules(func(fr transport.FaultRule) bool {
		return fr.To == ReplAddr(server+"b")
	})
	return r.recv.Heartbeat(ctx)
}

// FlipMode implements chaos.Fabric: every serving service switches
// dissemination mode.
func (r *soakRun) FlipMode(ctx context.Context, mode string) error {
	m, err := core.ParseRoutingMode(mode)
	if err != nil {
		return err
	}
	for _, name := range r.c.ServerNames() {
		if r.promoted && name == SoakReplServer {
			continue // the dead primary stays dead; the standby flips below
		}
		if err := r.c.Service(name).SetRoutingMode(ctx, m); err != nil {
			return fmt.Errorf("sim: flip %s to %s: %w", name, mode, err)
		}
	}
	if r.promoted {
		if err := r.recv.Service().SetRoutingMode(ctx, m); err != nil {
			return fmt.Errorf("sim: flip promoted %s to %s: %w", SoakReplServer, mode, err)
		}
	}
	r.mode = m
	return nil
}

// Inject and ClearInject implement chaos.Fabric over the cluster's fault
// injector. ClearInject removes only engine-installed rules, leaving an
// armed slow-standby window intact.
func (r *soakRun) Inject(rule transport.FaultRule) error {
	r.injectRules = append(r.injectRules, rule)
	r.c.Inject.AddRule(rule)
	return nil
}

func (r *soakRun) ClearInject() error {
	mine := make(map[transport.FaultRule]int, len(r.injectRules))
	for _, fr := range r.injectRules {
		mine[fr]++
	}
	r.c.Inject.RemoveRules(func(fr transport.FaultRule) bool {
		if mine[fr] > 0 {
			mine[fr]--
			return true
		}
		return false
	})
	r.injectRules = nil
	return nil
}

// SoakOutcome is one soak run's observations.
type SoakOutcome struct {
	LiveProfiles int
	// Delivered multisets (and their sizes) for the loss-critical observed
	// clients: realtime at the QoS server (rt), the attached realtime client
	// through the failover (ratt), the detached normal client whose parked
	// alerts the standby inherits (noff).
	Realtime, Failover, Detached                        map[string]int
	RealtimeDelivered, FailoverDelivered, DetachedTotal int

	// E15-shaped QoS observations at SoakQoSServer: normal deferred-not-lost
	// and bulk digest-exactly-once.
	NormalPrompt, NormalTotal, BulkPrompt int
	Digests, DigestEvents                 int

	// E14-shaped failover observations at SoakReplServer.
	Inherited int
	Promoted  bool
	Resyncs   int64

	// PipelineDropped is pipeline-level loss across the serving services.
	PipelineDropped int64
	// Transport cost and fault accounting.
	Messages, Blocked, InjectedDrops int64
	// Applied is the schedule as the engine applied it.
	Applied []chaos.Applied
	// SLO is the per-class delivery-latency report.
	SLO []SLOReport

	// Per-stage latency attribution from the traced notify chains (empty
	// unless TraceSample > 0).
	Attribution              []StageAttribution
	TraceSpans, TraceDropped int64
	traces                   []*trace.Trace

	// Health-plane observations: every component state transition, and the
	// number of completed fire→clear cycles.
	HealthTransitions []health.Transition
	HealthCycles      int

	// Flight-recorder accounting (cfg.FlightRecorder): the auto-captured
	// bundles with their parsed forms, the per-component ring stats, the
	// count of transitions into Critical, and the trace IDs the collector
	// had assembled by the end of the run (record resolution is checked
	// against this set).
	bundles        [][]byte
	dumps          []*logging.Dump
	critical       int
	logStats       []logging.ComponentStats
	retainedTraces map[string]bool

	Wall time.Duration
}

// runChaosSoak assembles the deployment, plays the workload under the
// given schedule (empty = baseline) and collects the outcome.
func runChaosSoak(cfg ChaosSoakConfig, schedule chaos.Schedule) (*SoakOutcome, error) {
	start := time.Now()
	ctx := context.Background()
	const nodes = soakServers / 4
	c, err := NewCluster(ClusterConfig{Seed: cfg.Seed, GDSNodes: nodes, GDSBranching: 3})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// One collector gathers spans from every service and directory node;
	// each component gets its own tracer (distinct seeds keep span IDs
	// collision-free across processes) feeding the shared ring.
	var tcol *trace.Collector
	var traceSeq int64
	newTracer := func(service string) *trace.Tracer {
		if tcol == nil {
			return nil
		}
		traceSeq++
		return trace.New(trace.Config{
			Service:    service,
			SampleRate: cfg.TraceSample,
			Seed:       cfg.Seed + traceSeq*7919,
			Collector:  tcol,
		})
	}
	if cfg.TraceSample > 0 {
		tcol = trace.NewCollector(1 << 18)
		for _, n := range c.Nodes {
			n.SetTracer(newTracer(n.ID()))
		}
	}

	// The virtual clock shared by the health engine and the logging plane:
	// it advances only at round boundaries, so every record and capture
	// timestamp is a pure function of the seed — the E19 byte-determinism
	// property. The mutex keeps -race quiet should any background emitter
	// ever read it; in the soak every log site runs on this goroutine.
	hclock := time.Unix(1_700_000_000, 0)
	var clkMu sync.Mutex
	lclock := func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		return hclock
	}
	advanceClock := func() time.Time {
		clkMu.Lock()
		hclock = hclock.Add(soakHealthTick)
		t := hclock
		clkMu.Unlock()
		return t
	}

	// The E19 logging plane: one recorder at debug feeds every component's
	// flight ring; no sink is attached (ring-only, the always-on production
	// posture), and the flight recorder snapshots the rings plus the trace
	// IDs retained in the span collector at capture time.
	var (
		rec       *logging.Recorder
		flight    *logging.FlightRecorder
		coreLog   *logging.Logger
		bundles   [][]byte
		dumps     []*logging.Dump
		critical  int
		flightErr error
	)
	if cfg.FlightRecorder {
		rec = logging.NewRecorder(logging.Config{
			Level: logging.LevelDebug,
			Clock: lclock,
		})
		flight = logging.NewFlightRecorder(logging.FlightConfig{
			Recorder: rec,
			Clock:    lclock,
			TraceIDs: tcol.TraceIDs, // nil collector (tracing off) retains none
		})
		coreLog = rec.For("core")
		gdsLog := rec.For("gds")
		for _, n := range c.Nodes {
			n.SetLog(gdsLog)
		}
	}

	quota := func(cc *core.Config) {
		// A retry interval beyond the run keeps deferred redelivery out of
		// the measurement (E15's determinism trick); deferred traffic
		// drains only on the explicit re-attach at the end.
		cc.DeliveryConfig = &delivery.Config{RetryInterval: time.Hour}
	}
	names := make([]string, 0, soakServers)
	for i := 0; i < soakServers; i++ {
		name := fmt.Sprintf("C%03d", i)
		nodeIdx := i % nodes
		if i < 3 {
			// The observed servers sit on the root node: any directory link
			// may be cut without touching the invariant-bearing paths.
			nodeIdx = 0
		}
		if _, err := c.AddServerWith(name, nodeIdx, func(cc *core.Config) {
			quota(cc)
			cc.Tracer = newTracer(cc.ServerName)
			cc.Log = coreLog
		}); err != nil {
			return nil, err
		}
		if err := c.Service(name).SetRoutingMode(ctx, soakMode); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	newQoS := func() *qos.Controller {
		// Burst-only buckets (rate 0 never refills) make quotas exact; the
		// digest period is long enough that only the explicit tick flushes.
		return qos.NewController(qos.Config{SubscriberBurst: soakBurst, BulkDigestEvery: time.Hour})
	}
	qosSvc := c.Service(SoakQoSServer)
	qosSvc.SetQoS(newQoS())
	replSvc := c.Service(SoakReplServer)
	replSvc.SetQoS(newQoS())

	// The soak's health plane: a rule engine over the QoS server's
	// registry, stepped on a virtual clock so rate windows behave the same
	// however fast the rounds run. Flight-recorder runs add the critical
	// soak-promotion rule and capture a post-mortem bundle the moment any
	// component turns critical — the kill-primary fault is the trigger.
	rulesText := soakHealthRules
	if cfg.FlightRecorder {
		rulesText += soakPromotionRules
	}
	hrules, err := health.ParseRules(rulesText)
	if err != nil {
		return nil, fmt.Errorf("sim: soak health rules: %w", err)
	}
	hreg := obs.NewRegistry()
	obs.RegisterService(hreg, qosSvc.Stats)
	hopts := health.Options{}
	if rec != nil {
		hopts.Log = rec.For("health")
		hopts.OnTransition = func(tr health.Transition) {
			if tr.To != health.Critical {
				return
			}
			critical++
			d, err := flight.Dump("critical:" + tr.Component)
			if err != nil {
				flightErr = fmt.Errorf("sim: soak flight dump: %w", err)
				return
			}
			raw, err := d.MarshalJSONL()
			if err != nil {
				flightErr = fmt.Errorf("sim: soak flight bundle: %w", err)
				return
			}
			dumps = append(dumps, d)
			bundles = append(bundles, raw)
		}
	}
	heng := health.NewEngine(hreg, hrules, hopts)

	// The ballast population goes in before the standby joins, so the
	// snapshot path carries it; the observed profiles subscribe after, over
	// the stream path.
	coll := SoakPublisher + ".X"
	loadCfg := cfg.Load
	loadCfg.Collection = coll
	if loadCfg.Seed == 0 {
		loadCfg.Seed = cfg.Seed
	}
	lg, err := NewLoadGen(loadCfg)
	if err != nil {
		return nil, err
	}
	live, err := lg.Populate(c, names)
	if err != nil {
		return nil, err
	}

	// The replica pair for SoakReplServer, configured like its primary.
	recv, err := c.AddStandby(SoakReplServer, func(cc *core.Config) {
		quota(cc)
		cc.Tracer = newTracer(SoakReplServer + "b")
		cc.Log = coreLog
	})
	if err != nil {
		return nil, err
	}
	standby := recv.Service()
	standby.SetQoS(newQoS())
	if err := recv.Join(ctx); err != nil {
		return nil, err
	}
	if cfg.FlightRecorder {
		// The soak-promotion rule watches gsalert_replica_promoted, which
		// lives on the standby's stats (selectors sum matching series, so
		// the QoS server's never-promoted zero contributes nothing).
		obs.RegisterService(hreg, standby.Stats)
	}

	// The observed subscribers: E15's cast at the QoS server, E14's cast at
	// the replicated server. All match every event of the collection.
	allEvents := profile.MustParse(fmt.Sprintf(`collection = "%s" AND event.type = "documents-added"`, coll))
	subscribe := func(svc *core.Service, host, client string, class qos.Class) (string, error) {
		p := profile.NewUser("soak-"+client, client, host, allEvents)
		p.Class = class
		return p.ID, svc.SubscribeProfile(p)
	}
	rtSink := c.Notifier(SoakQoSServer, "rt")
	nmSink := c.Notifier(SoakQoSServer, "nm")
	blkSink := c.Notifier(SoakQoSServer, "blk")
	if _, err := subscribe(qosSvc, SoakQoSServer, "rt", qos.ClassRealtime); err != nil {
		return nil, err
	}
	if _, err := subscribe(qosSvc, SoakQoSServer, "nm", qos.ClassNormal); err != nil {
		return nil, err
	}
	blkID, err := subscribe(qosSvc, SoakQoSServer, "blk", qos.ClassBulk)
	if err != nil {
		return nil, err
	}
	rattSink := c.Notifier(SoakReplServer, "ratt")
	if _, err := subscribe(replSvc, SoakReplServer, "ratt", qos.ClassRealtime); err != nil {
		return nil, err
	}
	if _, err := subscribe(replSvc, SoakReplServer, "noff", qos.ClassNormal); err != nil {
		return nil, err
	}

	run := &soakRun{
		cfg:       cfg,
		c:         c,
		ctx:       ctx,
		mode:      soakMode,
		recv:      recv,
		serving:   make(map[string]*core.Service),
		rattSinks: []*core.MemoryNotifier{rattSink},
	}
	eng, err := chaos.NewEngine(schedule, run)
	if err != nil {
		return nil, err
	}

	// The soak: rounds of zipf-topic events, the schedule advancing after
	// each settled round.
	c.TR.ResetStats()
	pubSvc := c.Service(SoakPublisher)
	for round := 0; round < soakRounds; round++ {
		for i := 0; i < soakEventsPerRound; i++ {
			ev := lg.Event(round, i)
			if _, err := pubSvc.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
				return nil, fmt.Errorf("sim: soak publish r%d/%d: %w", round, i, err)
			}
		}
		run.settle(ctx)
		if _, err := eng.AdvanceTo(ctx, round); err != nil {
			return nil, err
		}
		heng.TickAt(advanceClock())
	}
	run.settle(ctx)
	// Quiet tail: no publishes, so the deferred-rate window drains and any
	// firing rule clears — completing the fire→clear cycle.
	for i := 0; i < 6; i++ {
		heng.TickAt(advanceClock())
	}
	if flightErr != nil {
		return nil, flightErr
	}

	out := &SoakOutcome{
		LiveProfiles: live,
		Realtime:     make(map[string]int),
		Failover:     make(map[string]int),
		Detached:     make(map[string]int),
		Promoted:     run.promoted,
		Inherited:    run.inherited,
		Applied:      eng.Log(),
	}

	// E15 shape at the QoS server: prompt counts, then the deferred normal
	// backlog drains on re-attach, then the coalescing digest flushes.
	out.RealtimeDelivered = countKeys(out.Realtime, rtSink.All())
	out.NormalPrompt = countPrimitives(nmSink)
	out.BulkPrompt = countPrimitives(blkSink)
	qosSvc.RegisterNotifier("nm", nmSink)
	run.settle(ctx)
	out.NormalTotal = countPrimitives(nmSink)
	qosSvc.CompositeTick(time.Now().Add(2 * time.Hour))
	run.settle(ctx)
	for _, n := range blkSink.All() {
		if n.Composite == "digest" && n.ProfileID == blkID {
			out.Digests++
			out.DigestEvents += len(n.Contributing)
		}
	}

	// E14 shape at the replicated server: the attached realtime client's
	// multiset across attach generations, then the detached normal client
	// finally attaches at the serving service and drains its (possibly
	// inherited) mailbox.
	for _, sink := range run.rattSinks {
		out.FailoverDelivered += countKeys(out.Failover, sink.All())
	}
	servingRepl := run.servingFor(SoakReplServer)
	noffSink := core.NewMemoryNotifier()
	servingRepl.RegisterNotifier("noff", noffSink)
	if err := servingRepl.DrainDeliveries(ctx); err != nil {
		return nil, err
	}
	out.DetachedTotal = countKeys(out.Detached, noffSink.All())

	// Accounting: loss, replication catch-ups, transport cost, SLOs.
	var pipes []*delivery.Metrics
	for _, name := range names {
		m := run.servingFor(name).Delivery().Metrics()
		pipes = append(pipes, m)
		out.PipelineDropped += m.Snapshot().Dropped
	}
	out.Resyncs = recv.ReplicaStats().Resyncs
	st := c.TR.Stats()
	out.Messages, out.Blocked = st.Sent, st.Blocked
	out.InjectedDrops = c.Inject.Stats().Dropped
	out.SLO = ClassSLOReports(pipes, soakSLO)
	if tcol != nil {
		out.traces = tcol.Traces(trace.Filter{})
		out.Attribution = AttributionReports(trace.PathSamples(out.traces, trace.StageNotify))
		out.TraceSpans = tcol.SpansTotal()
		out.TraceDropped = tcol.Dropped()
	}
	if rec != nil {
		out.bundles = bundles
		out.dumps = dumps
		out.critical = critical
		out.logStats = rec.Stats()
		out.retainedTraces = make(map[string]bool, len(out.traces))
		for _, t := range out.traces {
			out.retainedTraces[t.TraceID] = true
		}
	}
	out.HealthTransitions = heng.Transitions()
	out.HealthCycles = healthCycles(out.HealthTransitions)
	out.Wall = time.Since(start)
	return out, nil
}

// healthCycles counts completed fire→clear cycles: transitions back to
// Healthy after a component had left it.
func healthCycles(trs []health.Transition) int {
	n := 0
	for _, tr := range trs {
		if tr.To == health.Healthy && tr.From != health.Healthy {
			n++
		}
	}
	return n
}

// ChaosSoakResult is one E16 row: the run under the chaos schedule (the
// embedded outcome) and the failure-free baseline it is compared with.
type ChaosSoakResult struct {
	Seed int64
	// FaultCounts is the composition of the configured schedule.
	FaultCounts map[chaos.Kind]int

	*SoakOutcome
	Baseline *SoakOutcome
}

// RunChaosSoak plays the soak twice — failure-free baseline, then under the
// chaos schedule — so the delivered multisets can be compared.
func RunChaosSoak(cfg ChaosSoakConfig) (*ChaosSoakResult, error) {
	baseline, err := runChaosSoak(cfg, chaos.Schedule{})
	if err != nil {
		return nil, fmt.Errorf("sim: E16 baseline: %w", err)
	}
	chaosRun, err := runChaosSoak(cfg, cfg.Schedule)
	if err != nil {
		return nil, fmt.Errorf("sim: E16 chaos: %w", err)
	}
	return &ChaosSoakResult{
		Seed:        cfg.Seed,
		FaultCounts: cfg.Schedule.Counts(),
		SoakOutcome: chaosRun,
		Baseline:    baseline,
	}, nil
}

// RealtimeIdentical, FailoverIdentical and DetachedIdentical report multiset
// equality of the chaos run's deliveries with the baseline's, per observed
// client.
func (r *ChaosSoakResult) RealtimeIdentical() bool {
	return sameMultiset(r.Baseline.Realtime, r.Realtime)
}

func (r *ChaosSoakResult) FailoverIdentical() bool {
	return sameMultiset(r.Baseline.Failover, r.Failover)
}

func (r *ChaosSoakResult) DetachedIdentical() bool {
	return sameMultiset(r.Baseline.Detached, r.Detached)
}

// Check asserts the E16 acceptance bar on a result.
func (r *ChaosSoakResult) Check() error {
	shed := soakEvents - soakBurst
	counts := r.FaultCounts
	switch {
	case counts[chaos.KindKillPrimary] < 1 || counts[chaos.KindPartition] < 1 || counts[chaos.KindFlipMode] < 1:
		return fmt.Errorf("sim: E16 schedule composition %v lacks a kill, a partition or a mode flip", counts)
	case len(r.Applied) != totalFaults(counts):
		return fmt.Errorf("sim: E16 applied %d of %d scheduled faults", len(r.Applied), totalFaults(counts))
	case counts[chaos.KindKillPrimary] > 0 && !r.Promoted:
		return fmt.Errorf("sim: E16 schedule kills a primary but no promotion happened")
	case r.RealtimeDelivered != soakEvents:
		return fmt.Errorf("sim: E16 realtime delivered %d of %d — loss under chaos", r.RealtimeDelivered, soakEvents)
	case !r.RealtimeIdentical():
		return fmt.Errorf("sim: E16 realtime multiset differs from the failure-free run")
	case r.FailoverDelivered != soakEvents || !r.FailoverIdentical():
		return fmt.Errorf("sim: E16 failover client delivered %d of %d (identical=%v) — promotion lost or duplicated alerts",
			r.FailoverDelivered, soakEvents, r.FailoverIdentical())
	case r.NormalPrompt != soakBurst || r.NormalTotal != soakEvents:
		return fmt.Errorf("sim: E16 normal prompt/total = %d/%d, want %d/%d — deferral lost alerts",
			r.NormalPrompt, r.NormalTotal, soakBurst, soakEvents)
	case r.DetachedTotal != soakEvents || !r.DetachedIdentical():
		return fmt.Errorf("sim: E16 detached client total %d of %d (identical=%v) — parked alerts lost across promotion",
			r.DetachedTotal, soakEvents, r.DetachedIdentical())
	case counts[chaos.KindKillPrimary] > 0 && r.Inherited <= 0:
		return fmt.Errorf("sim: E16 standby inherited %d parked alerts, want > 0", r.Inherited)
	case r.BulkPrompt != soakBurst || r.Digests != 1 || r.DigestEvents != shed:
		return fmt.Errorf("sim: E16 bulk prompt/digests/digest-events = %d/%d/%d, want %d/1/%d",
			r.BulkPrompt, r.Digests, r.DigestEvents, soakBurst, shed)
	case counts[chaos.KindSlowStandby] > 0 && r.Resyncs < 1:
		return fmt.Errorf("sim: E16 standby lagged but never resynced")
	case r.PipelineDropped+r.Baseline.PipelineDropped != 0:
		return fmt.Errorf("sim: E16 %d notifications dropped from pipelines — actual loss", r.PipelineDropped+r.Baseline.PipelineDropped)
	case counts[chaos.KindPartition] > 0 && r.Blocked == 0:
		return fmt.Errorf("sim: E16 schedule partitions a link but nothing was blocked — the cut missed")
	case counts[chaos.KindSlowStandby] > 0 && r.InjectedDrops == 0:
		return fmt.Errorf("sim: E16 standby was degraded but no message was injected-dropped")
	case r.HealthCycles < 1:
		// The health rules (or the engine) stopped observing the pipeline.
		return fmt.Errorf("sim: E16 health plane observed %d transitions but no fire→clear cycle", len(r.HealthTransitions))
	}
	for _, s := range append(append([]SLOReport(nil), r.SLO...), r.Baseline.SLO...) {
		if !s.OK {
			return fmt.Errorf("sim: E16 class %s p99 %v exceeds SLO %v", s.Class, s.P99, s.Bound)
		}
	}
	// Traced runs must attribute coherently: each class's per-stage sums
	// reconstruct its end-to-end latency within 10%.
	for _, a := range r.Attribution {
		if a.SumError() > 0.10 {
			return fmt.Errorf("sim: E16 class %s stage-sum %v vs e2e %v — attribution off by %.1f%%",
				a.Class, a.StageSum, a.TotalE2E, a.SumError()*100)
		}
	}
	return nil
}

func totalFaults(counts map[chaos.Kind]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// ChaosSoakTable renders one E16 result as an experiment table.
func ChaosSoakTable(r *ChaosSoakResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E16 — chaos soak (%d servers, %d live profiles, %d events, %d faults, seed %d)",
			soakServers, r.LiveProfiles, soakEvents, len(r.Applied), r.Seed),
		"check", "value")
	t.AddRow("realtime delivered / identical", fmt.Sprintf("%d / %v", r.RealtimeDelivered, r.RealtimeIdentical()))
	t.AddRow("failover delivered / identical", fmt.Sprintf("%d / %v", r.FailoverDelivered, r.FailoverIdentical()))
	t.AddRow("normal prompt → total", fmt.Sprintf("%d → %d", r.NormalPrompt, r.NormalTotal))
	t.AddRow("detached total / identical", fmt.Sprintf("%d / %v", r.DetachedTotal, r.DetachedIdentical()))
	t.AddRow("inherited parked", r.Inherited)
	t.AddRow("bulk prompt / digests / digest events", fmt.Sprintf("%d / %d / %d", r.BulkPrompt, r.Digests, r.DigestEvents))
	t.AddRow("promoted / resyncs", fmt.Sprintf("%v / %d", r.Promoted, r.Resyncs))
	t.AddRow("pipeline dropped", r.PipelineDropped+r.Baseline.PipelineDropped)
	t.AddRow("messages / blocked / injected drops", fmt.Sprintf("%d / %d / %d", r.Messages, r.Blocked, r.InjectedDrops))
	for _, s := range r.SLO {
		t.AddRow(fmt.Sprintf("%s p50/p99 (SLO %v)", s.Class, s.Bound),
			fmt.Sprintf("%v / %v delivered=%d ok=%v", s.P50, s.P99, s.Delivered, s.OK))
	}
	if len(r.Attribution) > 0 {
		t.AddRow("trace spans / ring-dropped", fmt.Sprintf("%d / %d", r.TraceSpans, r.TraceDropped))
	}
	t.AddRow("health transitions / fire→clear cycles", fmt.Sprintf("%d / %d", len(r.HealthTransitions), r.HealthCycles))
	t.AddRow("wall chaos / baseline", fmt.Sprintf("%v / %v", r.Wall.Round(time.Millisecond), r.Baseline.Wall.Round(time.Millisecond)))
	return t
}
