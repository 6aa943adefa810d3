package sim

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
)

// TestHealthExperimentAcceptance is the E18 acceptance bar: for three
// seeds, the health rules fire and clear deterministically, the meta-alert
// multisets are identical across the three routing modes, and the
// degraded-THEN-critical composite fires everywhere.
func TestHealthExperimentAcceptance(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r, err := RunHealthExperiment(8, 8, 2, 4, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHealthTableRenders smoke-checks the experiment table (it re-asserts
// the bar internally).
func TestHealthTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestHealthExperimentAcceptance")
	}
	tbl, err := HealthTable(8, 8, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := tbl.Render(); !strings.Contains(s, "E18") {
		t.Fatalf("table missing title: %s", s)
	}
}

// TestHealthReadinessWalk is the E18 readiness sub-scenario: /readyz flips
// 503 → 200 → 503 → 200 → 200 through join, partition, heal and
// promotion, and the promoted standby's QoS buckets carry the primary's
// charged quota.
func TestHealthReadinessWalk(t *testing.T) {
	r, err := RunHealthReadiness(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthDisabledAddsNoSeries pins the zero-cost-when-off guarantee: a
// fully registered ops registry without a health engine exposes no ALERTS
// and no gsalert_health_* series.
func TestHealthDisabledAddsNoSeries(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 1, GDSNodes: 1, GDSBranching: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddServer("A000", -1); err != nil {
		t.Fatal(err)
	}
	svc := c.Service("A000")
	reg := obs.NewRegistry()
	obs.RegisterService(reg, svc.Stats)
	obs.RegisterDelivery(reg, svc.Delivery())
	obs.RegisterGoRuntime(reg)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "ALERTS") || strings.HasPrefix(line, "gsalert_health_") {
			t.Fatalf("health-disabled exposition leaks a health series: %s", line)
		}
	}
}

// TestHealthDisabledZeroPublishAllocs pins the other half of the
// guarantee: the publish path allocates the same with a health engine
// observing the service's registry as without one — the engine reads at
// scrape cadence and contributes nothing per publish.
func TestHealthDisabledZeroPublishAllocs(t *testing.T) {
	measure := func(withEngine bool) float64 {
		c, err := NewCluster(ClusterConfig{Seed: 1, GDSNodes: 1, GDSBranching: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.AddServer("A000", -1); err != nil {
			t.Fatal(err)
		}
		svc := c.Service("A000")
		if withEngine {
			reg := obs.NewRegistry()
			obs.RegisterService(reg, svc.Stats)
			eng := health.NewEngine(reg, nil, health.Options{})
			eng.Register(reg)
			eng.TickAt(time.Unix(1_700_000_000, 0))
			defer eng.Close()
		}
		ctx := context.Background()
		qname := event.QName{Host: "A000", Collection: "X"}
		seq := 0
		publish := func() {
			seq++
			ev := event.New(fmt.Sprintf("alloc-%d-%v", seq, withEngine), event.TypeDocumentsAdded, qname, seq,
				[]event.DocRef{{ID: fmt.Sprintf("d%d", seq)}}, time.Unix(1_700_000_000, 0))
			if _, err := svc.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			publish() // warm the dedup window and delivery maps
		}
		return testing.AllocsPerRun(200, publish)
	}
	without := measure(false)
	with := measure(true)
	if with != without {
		t.Fatalf("publish allocs with idle health engine = %v, without = %v — the health plane must cost nothing off the scrape path", with, without)
	}
}

// TestHealthAlertEventShape pins the dogfood event: collection _health,
// type health-alert, and the transition riding as document metadata the
// profile grammar can predicate on.
func TestHealthAlertEventShape(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 1, GDSNodes: 1, GDSBranching: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddServer("A000", -1); err != nil {
		t.Fatal(err)
	}
	svc := c.Service("A000")
	sink := c.Notifier("A000", "ops")
	if _, err := svc.Subscribe("ops", profile.MustParse(`event.type = "health-alert" AND health.state = "critical"`)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	publish := func(to string) {
		err := svc.PublishHealthAlert(ctx, core.HealthAlert{
			Component: "qos", From: "degraded", To: to,
			Rule: "r", Severity: "critical", Value: 1.5, At: time.Unix(1_700_000_000, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	publish("critical")
	publish("healthy") // must NOT match the critical-only profile
	c.Settle(ctx)
	ns := sink.All()
	if len(ns) != 1 {
		t.Fatalf("critical-only profile matched %d of 2 health alerts, want 1", len(ns))
	}
	ev := ns[0].Event
	if ev.Type != event.TypeHealthAlert || ev.Collection.Collection != core.HealthCollection {
		t.Fatalf("meta-alert shape wrong: type=%s collection=%s", ev.Type, ev.Collection)
	}
	if got := ev.Docs[0].Metadata["health.rule"]; len(got) != 1 || got[0] != "r" {
		t.Fatalf("metadata missing rule: %v", ev.Docs[0].Metadata)
	}
	if svc.Stats().HealthAlerts != 2 {
		t.Fatalf("HealthAlerts stat = %d, want 2", svc.Stats().HealthAlerts)
	}
}

// HealthReadinessResult is the E18 readiness sub-scenario's observation
// log: /readyz probed at each lifecycle stage of a replica pair.
type HealthReadinessResult struct {
	// Stages maps stage name → the HTTP status /readyz returned.
	Stages []ReadinessStage
	// DeferredAfterPromotion is the promoted standby's deferred count after
	// post-promotion publishes — evidence the replicated QoS buckets (not
	// fresh ones) admitted the traffic.
	DeferredAfterPromotion int64
	AdmittedAfterPromotion int64
}

// ReadinessStage is one probed lifecycle point.
type ReadinessStage struct {
	Stage string
	Code  int
}

// RunHealthReadiness drives /readyz through a replica pair's lifecycle:
// synced (ready) → replication link cut (not ready) → healed (ready) →
// promoted (ready), asserting along the way that the standby's replicated
// QoS buckets carry the primary's charged quota across the promotion.
func RunHealthReadiness(seed int64) (*HealthReadinessResult, error) {
	c, names, err := NewTree(seed, 4, 0, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	primaryName, pub := names[0], names[1]
	coll := pub + ".X"
	if _, err := c.Server(pub).AddCollection(ctx, collection.Config{Name: "X", Public: true}); err != nil {
		return nil, err
	}
	const burst = 4
	newQoS := func() *qos.Controller {
		return qos.NewController(qos.Config{SubscriberBurst: burst, BulkDigestEvery: time.Hour})
	}
	primary := c.Service(primaryName)
	primary.SetQoS(newQoS())
	c.Notifier(primaryName, "nm")
	nmProf := profile.NewUser("nm-prof", "nm", primaryName,
		profile.MustParse(fmt.Sprintf(`collection = "%s" AND event.type = "documents-added"`, coll)))
	nmProf.Class = qos.ClassNormal
	if err := primary.SubscribeProfile(nmProf); err != nil {
		return nil, err
	}

	recv, err := c.AddStandby(primaryName, nil)
	if err != nil {
		return nil, err
	}
	standby := recv.Service()
	standby.SetQoS(newQoS())

	// The standby-side health engine gates readiness on the same rule
	// cmd/gs-server wires.
	heng := health.NewEngine(obs.NewRegistry(), nil, health.Options{})
	heng.AddReadiness("standby-caught-up", recv.Ready)
	readyz := health.ReadyzHandler(heng)
	probe := func(stage string, out *HealthReadinessResult) {
		rec := httptest.NewRecorder()
		readyz.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		out.Stages = append(out.Stages, ReadinessStage{Stage: stage, Code: rec.Code})
	}

	out := &HealthReadinessResult{}
	probe("pre-join", out) // not yet synced → 503

	if err := recv.Join(ctx); err != nil {
		return nil, err
	}
	probe("synced", out) // snapshot applied, primary reachable → 200

	// Charge 3 of the 4 subscriber tokens, then a heartbeat ships the
	// bucket levels to the standby. The base build creates the collection
	// (no documents-added yet); each following build adds one document and
	// charges one token.
	docs := []*collection.Document{{ID: "base", Content: "stable document"}}
	if _, _, err := c.Server(pub).Build(ctx, "X", docs); err != nil {
		return nil, err
	}
	c.Settle(ctx)
	for r := 1; r <= 3; r++ {
		docs = append(docs, &collection.Document{ID: fmt.Sprintf("extra-%d", r), Content: "doc"})
		if _, _, err := c.Server(pub).Build(ctx, "X", docs); err != nil {
			return nil, err
		}
	}
	c.Settle(ctx)
	if err := recv.Heartbeat(ctx); err != nil {
		return nil, err
	}

	// Cut the replication link: the next heartbeat fails and /readyz flips.
	c.TR.SetNodeDown(ReplAddr(primaryName), true)
	_ = recv.Heartbeat(ctx)
	probe("partitioned", out) // probe error → 503

	// Heal: the heartbeat goes through again and /readyz recovers.
	c.TR.SetNodeDown(ReplAddr(primaryName), false)
	if err := recv.Heartbeat(ctx); err != nil {
		return nil, err
	}
	probe("healed", out) // → 200

	// Kill + promote: readiness passes on the promotion flag.
	c.TR.SetNodeDown(ServerAddr(primaryName), true)
	c.TR.SetNodeDown(ReplAddr(primaryName), true)
	if err := recv.Promote(ctx, 0); err != nil {
		return nil, err
	}
	probe("promoted", out) // → 200

	// The replicated buckets must carry the 3 already-charged tokens: of
	// two post-promotion events, exactly one is admitted and one deferred.
	standby.RegisterNotifier("nm", core.NewMemoryNotifier())
	for r := 4; r <= 5; r++ {
		docs = append(docs, &collection.Document{ID: fmt.Sprintf("extra-%d", r), Content: "doc"})
		if _, _, err := c.Server(pub).Build(ctx, "X", docs); err != nil {
			return nil, err
		}
	}
	c.Settle(ctx)
	_ = standby.DrainDeliveries(ctx)
	st := standby.Stats()
	out.DeferredAfterPromotion = st.QoSDeferred
	out.AdmittedAfterPromotion = st.QoSAdmitted
	return out, nil
}

// Check asserts the readiness walk: 503 pre-join, 200 synced, 503 cut,
// 200 healed, 200 promoted — and the carried quota.
func (r *HealthReadinessResult) Check() error {
	want := map[string]int{
		"pre-join":    http.StatusServiceUnavailable,
		"synced":      http.StatusOK,
		"partitioned": http.StatusServiceUnavailable,
		"healed":      http.StatusOK,
		"promoted":    http.StatusOK,
	}
	if len(r.Stages) != len(want) {
		return fmt.Errorf("sim: E18 readiness probed %d stages, want %d", len(r.Stages), len(want))
	}
	var bad []string
	for _, s := range r.Stages {
		if s.Code != want[s.Stage] {
			bad = append(bad, fmt.Sprintf("%s=%d(want %d)", s.Stage, s.Code, want[s.Stage]))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("sim: E18 readiness walk wrong: %s", strings.Join(bad, " "))
	}
	if r.DeferredAfterPromotion != 1 {
		return fmt.Errorf("sim: E18 promoted standby deferred %d of the post-promotion events, want 1 — QoS buckets reset across failover",
			r.DeferredAfterPromotion)
	}
	return nil
}
