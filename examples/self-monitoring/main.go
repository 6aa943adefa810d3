// Self-monitoring — the observability pipeline end to end (internal/obs,
// docs/OBSERVABILITY.md).
//
// One simulated deployment (a GDS node plus a Greenstone server with QoS
// admission on) is wired into the registry of an ops plane started the way
// the server binaries start theirs (internal/ops), a workload is driven
// through it, and both halves of the observability story run against the
// live counters:
//
//   - pull: a /metrics endpoint is scraped over HTTP and a slice of the
//     Prometheus text catalog is printed;
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
	"strings"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/ops"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "self-monitoring: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	cluster, err := sim.NewCluster(sim.ClusterConfig{Seed: 2005, GDSNodes: 1})
	if err != nil {
		return err
	}
	defer cluster.Close()

	ctrl := qos.NewController(qos.Config{
		SubscriberRate:  50,
		SubscriberBurst: 100,
		CollectionRate:  500,
		CollectionBurst: 1000,
	})
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

	// One ops plane, assembled the way gs-server and gds-server assemble
	// theirs (internal/ops): a registry, the ops endpoint and the push
	// exporter. The full catalog goes into its registry: core service,
	// delivery pipeline, QoS admission, the directory node and the Go runtime.
	plane, err := ops.Start(ops.Config{
		Service:      "Hamilton",
		LogLevel:     "info",
		MetricsAddr:  "127.0.0.1:0",
		PushURL:      sink.URL + "/import",
		PushInterval: 150 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer plane.Close()
	reg := plane.Registry
	obs.RegisterService(reg, svc.Stats)
	obs.RegisterDelivery(reg, svc.Delivery())
	obs.RegisterQoS(reg, ctrl)
	obs.RegisterGDSNode(reg, cluster.Nodes[0])
	obs.RegisterGoRuntime(reg)

	// Drive a workload so the counters have something to say: one
	// subscriber per class, three rebuilds.
	for _, sub := range []struct {
		client string
		class  qos.Class
	}{{"ada", qos.ClassRealtime}, {"bob", qos.ClassNormal}, {"cora", qos.ClassBulk}} {
		cluster.Notifier("Hamilton", sub.client)
		p := profile.NewUser(sub.client+"-prof", sub.client, "Hamilton",
			profile.MustParse(`collection = "Hamilton.D"`))
		p.Class = sub.class
		if err := svc.SubscribeProfile(p); err != nil {
			return err
		}
	}
	if _, err := cluster.Server("Hamilton").AddCollection(ctx, collection.Config{
		Name: "D", Title: "Dissertations", Public: true,
	}); err != nil {
		return err
	}
	for round := 0; round < 3; round++ {
		docs := []*collection.Document{{
			ID:       fmt.Sprintf("d%d", round),
			Metadata: map[string][]string{"dc.Title": {fmt.Sprintf("Report %d", round)}},
			Content:  "self monitoring report",
		}}
		if _, _, err := cluster.Server("Hamilton").Build(ctx, "D", docs); err != nil {
			return err
		}
	}
	cluster.Settle(ctx)
	if err := plane.Serve(); err != nil {
		return err
	}
	metricsURL := "http://" + plane.Addr().String() + "/metrics"

	// --- Pull: scrape the ops endpoint's /metrics over HTTP. ---
	body, err := scrape(metricsURL)
	if err != nil {
		return err
	}
	fmt.Printf("scraped /metrics: %d series lines; a slice of the catalog:\n", countSamples(body))
	printSeries(body,
		"gsalert_core_events_published_total",
		"gsalert_core_notifications_total",
		"gsalert_delivery_delivered_by_class_total",
		"gsalert_delivery_queue_depth{class=\"realtime\",shard=\"0\"}",
		"gsalert_qos_quota_tokens",
		"gsalert_gds_deliveries_total",
	)

	// --- Push: wait for the exporter's snapshots to reach the sink, then
	// read its self-monitoring series from the registry it exports. ---
	deadline := time.Now().Add(10 * time.Second)
	for blocks.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if blocks.Load() < 2 {
		return fmt.Errorf("sink received %d snapshot blocks, want >= 2", blocks.Load())
	}
	if body, err = scrape(metricsURL); err != nil {
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
	return nil
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

// scrape GETs url and returns the body.
func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("scrape %s: http %d", url, resp.StatusCode)
	}
	return string(b), nil
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
