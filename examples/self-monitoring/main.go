// Self-monitoring — the ops plane end to end, the health plane dogfooding
// its own alerts included (internal/ops, docs/OBSERVABILITY.md,
// docs/HEALTH.md).
//
// One simulated deployment (a GDS node plus a Greenstone server behind a
// tight burst-only QoS quota) is wired into an ops plane started the way the
// server binaries start theirs, with the health plane on and its rules read
// from a file. A workload overruns the quota, the deferred-rate rule fires
// and the quiet tail lets it clear — and every state transition is
// published back into the pipeline as a first-class `health-alert` event
// that an ops subscriber receives like any other notification. Then the
// plane serves both halves of the observability story against the live
// counters:
//
//   - pull: /metrics is scraped over HTTP and a slice of the Prometheus
//     text catalog is printed, followed by /healthz and /readyz;
//   - push: the self-monitoring exporter compresses registry snapshots and
//     ships them to a local HTTP sink until at least two blocks arrive,
//     then reports its own gsalert_exporter_* counters — the exporter
//     watching itself through the registry it exports.
//
// The dashboards/ and alerts/ directories next to this file hold a Grafana
// dashboard and Prometheus alert rules over the same series.
//
//	go run ./examples/self-monitoring
package main

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/ops"
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
		fmt.Fprintf(os.Stderr, "self-monitoring: %v\n", err)
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

	// The push half needs somewhere to push: a local sink that counts the
	// exporter's gzip'd snapshots.
	var blocks atomic.Int64
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := io.Copy(io.Discard, zr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		blocks.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer sink.Close()

	// The rules go in a file, as an operator hands them to -health-rules.
	dir, err := os.MkdirTemp("", "self-monitoring")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	rulesPath := filepath.Join(dir, "qos.rules")
	if err := os.WriteFile(rulesPath, []byte(rules), 0o644); err != nil {
		return err
	}

	// One ops plane, assembled the way gs-server and gds-server assemble
	// theirs (internal/ops): a registry, the health engine, the ops endpoint
	// and the push exporter. The health engine reads the same registry
	// /metrics serves, and every transition goes back into the pipeline via
	// PublishHealthAlert. The run drives the engine on a virtual clock, so
	// its wall-clock ticker is set beyond the run.
	plane, err := ops.Start(ops.Config{
		Service:      "Hamilton",
		LogLevel:     "info",
		MetricsAddr:  "127.0.0.1:0",
		PushURL:      sink.URL + "/import",
		PushInterval: 150 * time.Millisecond,
		Health:       true,
		HealthRules:  rulesPath,
		HealthTick:   time.Hour,
		OnTransition: func(tr health.Transition) {
			if err := svc.PublishHealthAlert(context.Background(), tr.Alert()); err != nil {
				fmt.Fprintf(os.Stderr, "self-monitoring: publish meta-alert: %v\n", err)
			}
		},
	})
	if err != nil {
		return err
	}
	defer plane.Close()
	// The full catalog goes into its registry: core service, delivery
	// pipeline, QoS admission, the directory node and the Go runtime.
	reg := plane.Registry
	obs.RegisterService(reg, svc.Stats)
	obs.RegisterDelivery(reg, svc.Delivery())
	obs.RegisterQoS(reg, ctrl)
	obs.RegisterGDSNode(reg, cluster.Nodes[0])
	obs.RegisterGoRuntime(reg)

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
	opsSink := cluster.Notifier("Hamilton", "ops")
	op := profile.NewUser("ops-prof", "ops", "Hamilton",
		profile.MustParse(`event.type = "health-alert"`))
	op.Class = qos.ClassRealtime
	if err := svc.SubscribeProfile(op); err != nil {
		return err
	}

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
		plane.Health.TickAt(clock)
		cluster.Settle(ctx)
	}
	docs := []*collection.Document{{ID: "base", Content: "self monitoring report"}}
	if _, _, err := cluster.Server("Hamilton").Build(ctx, "D", docs); err != nil {
		return err
	}
	cluster.Settle(ctx)
	for round := 1; round <= 8; round++ {
		docs = append(docs, &collection.Document{
			ID:       fmt.Sprintf("d%d", round),
			Metadata: map[string][]string{"dc.Title": {fmt.Sprintf("Report %d", round)}},
			Content:  "self monitoring report",
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
	trs := plane.Health.Transitions()
	fmt.Printf("health transitions (%d):\n", len(trs))
	for _, tr := range trs {
		fmt.Printf("  %-4s %s -> %s  rule=%s severity=%s value=%.3f\n",
			tr.Component, tr.From, tr.To, tr.Rule, tr.Severity, tr.Value)
	}
	ns := opsSink.All()
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

	if err := plane.Serve(); err != nil {
		return err
	}
	base := "http://" + plane.Addr().String()

	// --- Pull: scrape the ops endpoint's /metrics, /healthz and /readyz
	// over HTTP. ---
	body, err := scrape(base + "/metrics")
	if err != nil {
		return err
	}
	fmt.Printf("\nscraped /metrics: %d series lines; a slice of the catalog:\n", countSamples(body))
	printSeries(body,
		"gsalert_core_events_published_total",
		"gsalert_core_notifications_total",
		"gsalert_delivery_delivered_by_class_total",
		"gsalert_delivery_queue_depth{class=\"realtime\",shard=\"0\"}",
		"gsalert_qos_quota_tokens",
		"gsalert_gds_deliveries_total",
		"gsalert_health_transitions_total",
	)
	for _, path := range []string{"/healthz", "/readyz"} {
		code, body, err := get(base + path)
		if err != nil {
			return err
		}
		fmt.Printf("\nGET %s -> %d\n%s", path, code, body)
	}

	// --- Push: wait for the exporter's snapshots to reach the sink, then
	// read its self-monitoring series from the registry it exports. ---
	deadline := time.Now().Add(10 * time.Second)
	for blocks.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if blocks.Load() < 2 {
		return fmt.Errorf("sink received %d snapshot blocks, want >= 2", blocks.Load())
	}
	if body, err = scrape(base + "/metrics"); err != nil {
		return err
	}
	fmt.Printf("\nexporter pushed %d snapshot blocks to the local sink; its self-monitoring series:\n", blocks.Load())
	printSeries(body,
		"gsalert_exporter_scrapes_total",
		"gsalert_exporter_sent_total",
		"gsalert_exporter_sent_bytes_total",
		"gsalert_exporter_retries_total",
		"gsalert_exporter_dropped_total",
	)
	fmt.Println("\nimport dashboards/gsalert.json and alerts/gsalert-alerts.yaml to watch a real deployment (docs/OBSERVABILITY.md)")
	fmt.Println("see docs/HEALTH.md for the rule grammar and the burn-rate math")
	return nil
}

func first(v []string) string {
	if len(v) == 0 {
		return "?"
	}
	return v[0]
}

// printSeries prints the exposition lines starting with any of prefixes.
func printSeries(body string, prefixes ...string) {
	for _, prefix := range prefixes {
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, prefix) {
				fmt.Printf("  %s\n", line)
			}
		}
	}
}

// get GETs url and returns the status code and body.
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

// scrape GETs url and returns the body of a 200 response.
func scrape(url string) (string, error) {
	code, body, err := get(url)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("scrape %s: http %d", url, code)
	}
	return body, nil
}

// countSamples counts non-comment lines in a Prometheus exposition.
func countSamples(body string) int {
	n := 0
	for _, line := range strings.Split(body, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}
