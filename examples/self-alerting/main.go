// Self-alerting — the health plane dogfooding its own alerts through the
// pipeline (internal/health, docs/HEALTH.md).
//
// One simulated deployment runs a Greenstone server with a tight
// burst-only QoS quota and a health engine evaluating a threshold rule
// over the live metric registry. A workload overruns the quota, the
// deferred-rate rule fires, the quiet tail lets it clear — and every
// state transition is published back into the pipeline as a first-class
// `health-alert` event that an ops subscriber receives like any other
// notification. The same engine serves /healthz and /readyz over HTTP,
// scraped at the end of the run.
//
//	go run ./examples/self-alerting
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/sim"
)

// rules watches the QoS admission path: once deferrals exceed 5% of a
// 30-second window's admissions budget the component degrades; 20 seconds
// above 15% escalates to critical.
const rules = `
rule qos-deferred-warn {
	component = qos
	severity  = warning
	expr      = rate(gsalert_qos_deferred_total[30s]) > 0.01
}

rule qos-deferred-crit {
	component = qos
	severity  = critical
	expr      = rate(gsalert_qos_deferred_total[30s]) > 0.15
	for       = 20s
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "self-alerting: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	cluster, err := sim.NewCluster(sim.ClusterConfig{Seed: 2018, GDSNodes: 1})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// A server whose subscriber quota is burst-only: four tokens, never
	// refilled, so a sustained workload is guaranteed to overrun it.
	ctrl := qos.NewController(qos.Config{SubscriberBurst: 4, BulkDigestEvery: time.Hour})
	if _, err := cluster.AddServerWith("Hamilton", 0, func(cfg *core.Config) {
		cfg.QoS = ctrl
	}); err != nil {
		return err
	}
	svc := cluster.Service("Hamilton")

	// The watched workload: a normal-class subscriber on the collection.
	cluster.Notifier("Hamilton", "worker")
	wp := profile.NewUser("worker-prof", "worker", "Hamilton",
		profile.MustParse(`collection = "Hamilton.D" AND event.type = "documents-added"`))
	wp.Class = qos.ClassNormal
	if err := svc.SubscribeProfile(wp); err != nil {
		return err
	}

	// The dogfood loop: an ops subscriber receives the health plane's own
	// transitions as pipeline events, realtime class.
	ops := cluster.Notifier("Hamilton", "ops")
	op := profile.NewUser("ops-prof", "ops", "Hamilton",
		profile.MustParse(`event.type = "health-alert"`))
	op.Class = qos.ClassRealtime
	if err := svc.SubscribeProfile(op); err != nil {
		return err
	}

	// The health engine reads the same registry /metrics serves, and every
	// transition goes back into the pipeline via PublishHealthAlert.
	reg := obs.NewRegistry()
	obs.RegisterService(reg, svc.Stats)
	obs.RegisterQoS(reg, ctrl)
	rs, err := health.ParseRules(rules)
	if err != nil {
		return err
	}
	eng := health.NewEngine(reg, rs, health.Options{
		OnTransition: func(tr health.Transition) {
			if err := svc.PublishHealthAlert(context.Background(), tr.Alert()); err != nil {
				fmt.Fprintf(os.Stderr, "self-alerting: publish meta-alert: %v\n", err)
			}
		},
	})
	defer eng.Close()
	eng.Register(reg)
	eng.AddReadiness("pipeline", func() error { return nil })

	// Drive rounds of builds with a virtual-clock tick after each one: the
	// quota exhausts after four admissions, the deferred rate climbs and
	// the rules fire; six quiet ticks afterwards let them clear.
	if _, err := cluster.Server("Hamilton").AddCollection(ctx, collection.Config{
		Name: "D", Title: "Dissertations", Public: true,
	}); err != nil {
		return err
	}
	clock := time.Unix(1_700_000_000, 0)
	tick := func() {
		clock = clock.Add(10 * time.Second)
		eng.TickAt(clock)
		cluster.Settle(ctx)
	}
	docs := []*collection.Document{{ID: "base", Content: "self alerting report"}}
	if _, _, err := cluster.Server("Hamilton").Build(ctx, "D", docs); err != nil {
		return err
	}
	cluster.Settle(ctx)
	for round := 1; round <= 8; round++ {
		docs = append(docs, &collection.Document{
			ID:      fmt.Sprintf("d%d", round),
			Content: "self alerting report",
		})
		if _, _, err := cluster.Server("Hamilton").Build(ctx, "D", docs); err != nil {
			return err
		}
		tick()
	}
	for i := 0; i < 6; i++ {
		tick() // quiet tail: the deferred rate decays and the rules clear
	}

	// What the run produced: the state machine's transition log, and the
	// same transitions received as pipeline events by the ops subscriber.
	trs := eng.Transitions()
	fmt.Printf("health transitions (%d):\n", len(trs))
	for _, tr := range trs {
		fmt.Printf("  %-4s %s -> %s  rule=%s severity=%s value=%.3f\n",
			tr.Component, tr.From, tr.To, tr.Rule, tr.Severity, tr.Value)
	}
	ns := ops.All()
	fmt.Printf("\nops subscriber received %d meta-alerts through the pipeline:\n", len(ns))
	for _, n := range ns {
		d := n.Event.Docs[0]
		fmt.Printf("  %s  %s -> %s  (rule %s)\n", n.Event.Collection,
			first(d.Metadata["health.from"]), first(d.Metadata["health.state"]),
			first(d.Metadata["health.rule"]))
	}
	if len(trs) == 0 || len(ns) != len(trs) {
		return fmt.Errorf("dogfood mismatch: %d transitions but %d delivered meta-alerts", len(trs), len(ns))
	}
	st := svc.Stats()
	fmt.Printf("\nworkload: admitted=%d deferred=%d health_alerts=%d\n",
		st.QoSAdmitted, st.QoSDeferred, st.HealthAlerts)

	// The same engine behind /healthz and /readyz on the ops mux the server
	// binaries serve, scraped over HTTP.
	addr, stop, err := obs.ServeOps("127.0.0.1:0", reg, nil, health.Endpoints(eng))
	if err != nil {
		return err
	}
	defer stop()
	for _, path := range []string{"/healthz", "/readyz"} {
		code, body, err := get("http://" + addr.String() + path)
		if err != nil {
			return err
		}
		fmt.Printf("\nGET %s -> %d\n%s", path, code, body)
	}
	fmt.Println("\nsee docs/HEALTH.md for the rule grammar and the burn-rate math")
	return nil
}

func first(v []string) string {
	if len(v) == 0 {
		return "?"
	}
	return v[0]
}

func get(url string) (int, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(b), nil
}
