// Package ops is the one place a server process's operations plane is
// assembled (docs/OBSERVABILITY.md); gs-server and gds-server both go
// through it. The shape is two calls around the binary's own assembly:
//
//	plane, err := ops.Start(cfg) // recorder → tracer → registry → flight recorder → health engine
//	... build components with plane.Wire*, obs.Register* them into plane.Registry ...
//	err = plane.Serve()          // health ticker → ops endpoint → push exporter
//
// Nothing listens or ticks before Serve, so no handler or health hook can
// observe a half-built server: Config.Stats and Config.OnTransition may
// close over components created between the two calls.
package ops

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/trace"
)

// Config assembles a Plane: first the eleven flags every server binary
// shares (RegisterFlags), then what each binary decides for itself.
type Config struct {
	MetricsAddr   string        // -metrics-addr
	PushURL       string        // -metrics-push-url
	PushInterval  time.Duration // -metrics-push-interval
	TraceCapacity int           // -trace-capacity
	Pprof         bool          // -pprof
	LogLevel      string        // -log-level
	LogRing       int           // -log-ring
	FlightDir     string        // -flight-dir
	Health        bool          // -health (implied by HealthRules)
	HealthRules   string        // -health-rules
	HealthTick    time.Duration // -health-tick

	// Service names the process in spans (gs-server -name, gds-server -id).
	Service string
	// Stats supplies the /stats JSON payload, also embedded in flight
	// bundles. It is first called after Serve.
	Stats func() any
	// LogSink receives rendered log lines, capped per component at
	// LogRateLimit lines/sec (0 = no cap); the binaries pass os.Stderr.
	LogSink      io.Writer
	LogRateLimit float64
	// Trace turns the tracer on; TraceSample and TraceSlow are its head
	// sampling rate and tail-retain threshold (zero on a directory node,
	// which only records hops of contexts an origin server sampled).
	Trace       bool
	TraceSample float64
	TraceSlow   time.Duration
	// OnTransition, when set, sees every health state transition after the
	// plane's own handling (gs-server republishes it into its pipeline).
	OnTransition func(health.Transition)
}

// RegisterFlags defines the shared ops flags on fs, bound to c's fields.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "serve the ops endpoint over HTTP at this address: GET /metrics (Prometheus catalog), GET /stats (JSON), plus /traces, /debug/flightrecorder, /healthz and /readyz when those planes are on; empty disables")
	fs.StringVar(&c.PushURL, "metrics-push-url", "", "push gzip'd Prometheus snapshots to this HTTP sink (e.g. a VictoriaMetrics import endpoint); empty disables")
	fs.DurationVar(&c.PushInterval, "metrics-push-interval", 15*time.Second, "interval between pushed metric snapshots")
	fs.IntVar(&c.TraceCapacity, "trace-capacity", trace.DefaultCapacity, "span slots in the in-memory trace ring (drop-oldest)")
	fs.BoolVar(&c.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the ops endpoint (docs/OBSERVABILITY.md)")
	fs.StringVar(&c.LogLevel, "log-level", "info", "minimum structured-log level kept: debug, info, warn, error or off; kept records land in the per-component flight rings and (rate-limited) on stderr")
	fs.IntVar(&c.LogRing, "log-ring", logging.DefaultRingSize, "per-component flight-ring capacity in records (drop-oldest)")
	fs.StringVar(&c.FlightDir, "flight-dir", "", "directory for post-mortem flight bundles: each health transition into critical writes one JSONL bundle here; empty keeps captures on-demand only (GET /debug/flightrecorder, gs-client logs)")
	fs.BoolVar(&c.Health, "health", false, "enable the health plane: SLO rules evaluated against the local metric registry, /healthz + /readyz on the ops endpoint and ALERTS series; implied by -health-rules")
	fs.StringVar(&c.HealthRules, "health-rules", "", "health rule file (docs/HEALTH.md grammar); empty = the built-in defaults")
	fs.DurationVar(&c.HealthTick, "health-tick", 10*time.Second, "health rule evaluation cadence (scrape-like pull; zero hot-path cost)")
}

// Plane is a started operations plane. Tracer is nil with tracing off and
// Health with the health plane off; Registry is the one registry /metrics,
// the exporter and the health engine read.
type Plane struct {
	cfg Config
	log *logging.Logger

	Logs     *logging.Recorder
	Tracer   *trace.Tracer
	Registry *obs.Registry
	Flight   *logging.FlightRecorder
	Health   *health.Engine

	addr    net.Addr
	closers []func()
}

// Start builds recorder → tracer → registry → flight recorder → health
// engine, in that order, registering each plane's self-monitoring series.
// Nothing it builds runs until Serve.
func Start(cfg Config) (*Plane, error) {
	level, err := logging.ParseLevel(cfg.LogLevel)
	if err != nil {
		return nil, err
	}
	p := &Plane{cfg: cfg, Registry: obs.NewRegistry()}
	p.Logs = logging.NewRecorder(logging.Config{
		Level:     level,
		RingSize:  cfg.LogRing,
		Sink:      cfg.LogSink,
		RateLimit: cfg.LogRateLimit,
	})
	p.log = p.Logs.For("ops")
	obs.RegisterLogging(p.Registry, p.Logs)
	if cfg.Trace {
		p.Tracer = trace.New(trace.Config{
			Service:    cfg.Service,
			SampleRate: cfg.TraceSample,
			SlowRoot:   cfg.TraceSlow,
			Collector:  trace.NewCollector(cfg.TraceCapacity),
		})
		obs.RegisterTrace(p.Registry, p.Tracer.Collector())
	}
	// Bundles join all three pillars: rings, /stats, retained-trace index.
	p.Flight = logging.NewFlightRecorder(logging.FlightConfig{
		Recorder: p.Logs,
		Dir:      cfg.FlightDir,
		Stats:    cfg.Stats,
		TraceIDs: p.Tracer.Collector().TraceIDs,
	})
	obs.RegisterFlight(p.Registry, p.Flight)

	if cfg.Health || cfg.HealthRules != "" {
		rules := health.DefaultRules()
		if cfg.HealthRules != "" {
			raw, err := os.ReadFile(cfg.HealthRules)
			if err == nil {
				rules, err = health.ParseRules(string(raw))
			}
			if err != nil {
				return nil, fmt.Errorf("health rules: %w", err)
			}
		}
		p.Health = health.NewEngine(p.Registry, rules, health.Options{
			Log:          p.Logs.For("health"),
			OnTransition: p.onTransition,
		})
		p.Health.Register(p.Registry)
	}
	return p, nil
}

// onTransition captures a flight bundle the moment a component turns
// critical, while the records that led there still sit in the rings.
func (p *Plane) onTransition(tr health.Transition) {
	if tr.To == health.Critical && p.cfg.FlightDir != "" {
		if path, err := p.Flight.DumpToDir("critical:" + tr.Component); err != nil {
			p.log.Warn("flight dump failed", logging.String("error", err.Error()))
		} else {
			p.log.Info("flight bundle captured", logging.String("path", path))
		}
	}
	if p.cfg.OnTransition != nil {
		p.cfg.OnTransition(tr)
	}
}

// WireCore hands the service its tracer and component logger.
func (p *Plane) WireCore(cfg *core.Config) {
	cfg.Tracer, cfg.Log = p.Tracer, p.Logs.For("core")
}

// WireDelivery hands the pipeline its tracer and component logger.
func (p *Plane) WireDelivery(cfg *delivery.Config) {
	cfg.Tracer, cfg.Log = p.Tracer, p.Logs.For("delivery")
}

// WireStandby hands the replication receiver its tracer and logger.
func (p *Plane) WireStandby(cfg *replica.StandbyConfig) {
	cfg.Tracer, cfg.Log = p.Tracer, p.Logs.For("replica")
}

// WireNode hands a directory node its tracer and component logger; call it
// right after gds.NewNode, before traffic flows.
func (p *Plane) WireNode(n *gds.Node) {
	n.SetTracer(p.Tracer)
	n.SetLog(p.Logs.For("gds"))
}

// Serve starts the health ticker, then the ops endpoint (MetricsAddr set),
// then the push exporter (PushURL set). Register every component's series
// and readiness checks first.
func (p *Plane) Serve() error {
	routes := map[string]http.Handler{"/debug/flightrecorder": obs.FlightHandler(p.Flight)}
	if p.Tracer.Enabled() {
		routes["/traces"] = obs.TracesHandler(p.Tracer.Collector())
	}
	if p.cfg.Pprof {
		routes["/debug/pprof/"] = obs.PprofHandler()
	}
	if p.Health != nil {
		p.Health.Start(p.cfg.HealthTick)
		p.closers = append(p.closers, p.Health.Close)
		for pattern, h := range health.Endpoints(p.Health) {
			routes[pattern] = h
		}
		p.log.Info("health plane on", logging.Int("rules", int64(len(p.Health.Rules().Rules))),
			logging.String("tick", p.cfg.HealthTick.String()))
	}
	if p.cfg.MetricsAddr != "" {
		addr, stop, err := obs.ServeOps(p.cfg.MetricsAddr, p.Registry, p.cfg.Stats, routes)
		if err != nil {
			return fmt.Errorf("ops endpoint: %w", err)
		}
		p.addr = addr
		p.closers = append(p.closers, stop)
		p.log.Info("ops endpoint serving /metrics and /stats", logging.String("addr", addr.String()))
	}
	if p.cfg.PushURL != "" {
		exp, err := obs.NewExporter(p.Registry, obs.ExporterConfig{URL: p.cfg.PushURL, Interval: p.cfg.PushInterval})
		if err != nil {
			return fmt.Errorf("metrics exporter: %w", err)
		}
		p.closers = append(p.closers, exp.Close)
		p.log.Info("pushing metrics", logging.String("url", p.cfg.PushURL),
			logging.String("interval", p.cfg.PushInterval.String()))
	}
	return nil
}

// Addr is the ops endpoint's bound address (nil without one): the real
// port when MetricsAddr asked for port 0.
func (p *Plane) Addr() net.Addr { return p.addr }

// Close stops what Serve started, newest first; safe without a Serve.
func (p *Plane) Close() {
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
	p.closers = nil
}
