package ops_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/ops"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/transport"
)

// alwaysCritical fires on the first tick, so the engine's per-rule and
// per-transition series (ALERTS, gsalert_health_transitions_total) exist.
const alwaysCritical = `
rule always {
	component = runtime
	severity  = critical
	expr      = gsalert_go_goroutines > 0
}
`

// exposedKinds renders the registry and returns family name → TYPE.
func exposedKinds(t *testing.T, reg *obs.Registry) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out[f[2]] = f[3]
		}
	}
	return out
}

// startPlane starts a plane with every optional part on: tracing, a health
// engine over rules, a flight directory, the ops endpoint and the exporter
// (pushing into a local sink).
func startPlane(t *testing.T, service string, stats func() any, onTransition func(health.Transition)) *ops.Plane {
	t.Helper()
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(sink.Close)
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules")
	if err := os.WriteFile(rules, []byte(alwaysCritical), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := ops.Start(ops.Config{
		Service:      service,
		Stats:        stats,
		MetricsAddr:  "127.0.0.1:0",
		PushURL:      sink.URL,
		PushInterval: time.Hour,
		LogLevel:     "debug",
		FlightDir:    dir,
		HealthRules:  rules,
		HealthTick:   time.Hour, // ticks are driven by hand below
		Trace:        true,
		TraceSample:  1,
		OnTransition: onTransition,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestCatalogCoversExposition is the promised coverage test for "metrics
// declared once": the full gs-server and gds-server registries are built
// against live components through ops.Start, scraped, and compared with
// obs.Declared(), the catalog health.ParseRules validates against. Every
// exposed family must be known to rule validation with the kind it is
// exposed as, and nothing may be declared that neither binary can emit.
func TestCatalogCoversExposition(t *testing.T) {
	ctx := context.Background()
	mem := transport.NewMemory()
	defer func() { _ = mem.Close() }()

	// gds-server's registry: a directory node with one warm content link.
	node, err := gds.NewNode("gds-root", "gds://root", 1, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	gdsPlane := startPlane(t, "gds-root", func() any { return node.Snapshot() }, nil)
	gdsPlane.WireNode(node)
	httpTr := transport.NewHTTP()
	defer func() { _ = httpTr.Close() }()
	obs.RegisterGDSNode(gdsPlane.Registry, node)
	obs.RegisterHTTPTransport(gdsPlane.Registry, httpTr)
	obs.RegisterGoRuntime(gdsPlane.Registry)

	// gs-server's registry: pipeline, QoS-admitting service, transport.
	var transitions []health.Transition
	var svc *core.Service
	gsPlane := startPlane(t, "Hamilton", func() any { return svc.Stats() },
		func(tr health.Transition) { transitions = append(transitions, tr) })
	dcfg := delivery.Config{}
	gsPlane.WireDelivery(&dcfg)
	pipeline, err := delivery.NewPipeline(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pipeline.Close() }()
	ctrl := qos.NewController(qos.Config{SubscriberBurst: 4})
	gdsCli := gds.NewClient("Hamilton", "gs://hamilton", "gds://root", mem)
	ccfg := core.Config{
		ServerName: "Hamilton", ServerAddr: "gs://hamilton", Transport: mem,
		GDS: gdsCli, Delivery: pipeline, QoS: ctrl, ContentWarmup: -1,
	}
	gsPlane.WireCore(&ccfg)
	if ccfg.Tracer == nil || ccfg.Log == nil || dcfg.Tracer == nil || dcfg.Log == nil {
		t.Fatal("Wire* left a tracer or logger unset with both planes on")
	}
	svc, err = core.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	obs.RegisterService(gsPlane.Registry, svc.Stats)
	obs.RegisterDelivery(gsPlane.Registry, pipeline)
	obs.RegisterQoS(gsPlane.Registry, ctrl)
	obs.RegisterHTTPTransport(gsPlane.Registry, httpTr)
	obs.RegisterGoRuntime(gsPlane.Registry)

	// A content-routed subscription advertises a digest: the node's
	// per-link family appears.
	if err := gdsCli.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetRoutingMode(ctx, core.RouteContent); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Subscribe("alice", profile.MustParse(`collection = "Hamilton.C"`)); err != nil {
		t.Fatal(err)
	}

	exposed := map[string]string{}
	for _, p := range []*ops.Plane{gdsPlane, gsPlane} {
		if err := p.Serve(); err != nil {
			t.Fatal(err)
		}
		p.Health.Tick()
		for name, kind := range exposedKinds(t, p.Registry) {
			exposed[name] = kind
		}
	}

	catalog := obs.Declared()
	var problems []string
	for name, kind := range exposed {
		if declared, ok := catalog[name]; !ok {
			problems = append(problems, "exposed but unknown to rule validation: "+name)
		} else if declared.String() != kind {
			problems = append(problems, name+" exposed as "+kind+" but validates as "+declared.String())
		}
	}
	for name := range catalog {
		if _, ok := exposed[name]; !ok {
			problems = append(problems, "declared but emitted by neither binary's registry: "+name)
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}

	// The rest of what Start/Serve promise, on the gs-server plane: the
	// binary's hook saw the transition, the critical transition wrote a
	// flight bundle, and /healthz answers 503 on the bound ops address.
	if len(transitions) != 1 || transitions[0].To != health.Critical {
		t.Errorf("OnTransition saw %+v, want one transition into critical", transitions)
	}
	if gsPlane.Flight.Dumps() != 1 {
		t.Errorf("critical transition captured %d flight bundles, want 1", gsPlane.Flight.Dumps())
	}
	resp, err := http.Get("http://" + gsPlane.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz with a critical component = %d, want 503", resp.StatusCode)
	}
	gsPlane.Close()
	gsPlane.Close() // idempotent
	if _, err := http.Get("http://" + gsPlane.Addr().String() + "/healthz"); err == nil {
		t.Error("ops endpoint still answering after Close")
	}
}

// TestStartRejectsBadConfig: a bad log level or rule file fails Start,
// before anything listens.
func TestStartRejectsBadConfig(t *testing.T) {
	if _, err := ops.Start(ops.Config{LogLevel: "chatty"}); err == nil {
		t.Error("unknown log level accepted")
	}
	if _, err := ops.Start(ops.Config{LogLevel: "info", HealthRules: filepath.Join(t.TempDir(), "absent")}); err == nil {
		t.Error("missing rule file accepted")
	}
	bad := filepath.Join(t.TempDir(), "rules")
	if err := os.WriteFile(bad, []byte("rule r {\n component = c\n severity = warning\n expr = no_such_metric > 1\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ops.Start(ops.Config{LogLevel: "info", HealthRules: bad}); err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Errorf("rule over an undeclared metric: err = %v, want unknown metric", err)
	}
}
