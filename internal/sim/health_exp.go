package sim

import (
	"context"
	"fmt"
	"strings"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
)

// E18 — the self-alerting health plane, dogfooded through the pipeline. A
// health engine watches one server's own metric registry while a publisher
// drives its normal-class subscriber over a burst-only quota: the deferred
// rate rises, a warning rule fires (component degraded), a critical rule
// with a `for` hold escalates (component critical), and the quiet tail
// clears both (component healthy again). Every transition is published back
// into the pipeline as a first-class health-alert event, where an operator
// subscriber on a DIFFERENT server receives it like any alert — including
// through a composite wrapper (`SEQUENCE degraded THEN critical`). The
// acceptance bar, per seed:
//
//   - the rule engine is deterministic: the transition sequence is
//     identical across broadcast, multicast and content routing (the rules
//     observe local QoS counters, which the modes must agree on);
//   - the meta-alert multiset delivered to the operator is identical
//     across the three modes — health events route like ordinary events;
//   - the composite wrapper fires in every mode: degraded-then-critical
//     sequences need no special casing;
//   - at least one full fire→clear cycle completes.
//
// A separate readiness scenario drives /readyz through a replica pair's
// lifecycle: ready while the standby is synced, NOT ready while the
// replication link is cut, ready again after the heal, and ready after a
// kill + promotion — with the promoted standby's QoS token buckets carrying
// the quota state the primary had already charged (satellite: quotas are
// not reset by failover).

// healthExpRules stages the E18 escalation: the warning fires as soon as
// the deferred rate is visible; the critical needs the rate high AND held
// for two ticks, so the component walks healthy → degraded → critical.
const healthExpRules = `
rule qos-deferred-warn {
	component = qos
	severity = warning
	expr = rate(gsalert_qos_deferred_total[30s]) > 0.01
}
rule qos-deferred-crit {
	component = qos
	severity = critical
	expr = rate(gsalert_qos_deferred_total[30s]) > 0.15
	for = 20s
}
`

// HealthModeResult is one E18 row (one routing mode).
type HealthModeResult struct {
	Mode string
	// Transitions is the engine's component transition log.
	Transitions []health.Transition
	// Published counts meta-alert events the watched server published.
	Published int64
	// Delivered is the operator subscriber's meta-alert multiset (keyed
	// like E14's delivery keys); DeliveredCount its size.
	Delivered      map[string]int
	DeliveredCount int
	// CompositeFired counts firings of the degraded-THEN-critical wrapper.
	CompositeFired int
	// Cycles counts completed fire→clear cycles.
	Cycles int
}

// transitionSig renders a transition sequence for cross-mode comparison
// (timestamps are virtual and identical by construction, so they stay in).
func transitionSig(trs []health.Transition) string {
	parts := make([]string, 0, len(trs))
	for _, tr := range trs {
		parts = append(parts, fmt.Sprintf("%s:%s>%s:%s", tr.Component, tr.From, tr.To, tr.Rule))
	}
	return strings.Join(parts, " ")
}

// RunHealthMode plays the E18 dogfood scenario through one routing mode.
func RunHealthMode(servers, rounds, eventsPerRound, burst int, mode core.RoutingMode, seed int64) (*HealthModeResult, error) {
	c, names, err := NewTree(seed, servers, mode, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	pub, watched, ops := names[0], names[1], names[2]
	coll := pub + ".X"
	if _, err := c.Server(pub).AddCollection(ctx, collection.Config{Name: "X", Public: true}); err != nil {
		return nil, err
	}

	// The watched server: a burst-only quota and a normal-class subscriber,
	// so the publish rounds exhaust the budget and defer the remainder —
	// the signal the health rules watch.
	wsvc := c.Service(watched)
	wsvc.SetQoS(burstOnlyQoS(burst))
	c.Notifier(watched, "nm")
	nmProf := profile.NewUser("nm-prof", "nm", watched,
		profile.MustParse(fmt.Sprintf(`collection = "%s" AND event.type = "documents-added"`, coll)))
	nmProf.Class = qos.ClassNormal
	if err := wsvc.SubscribeProfile(nmProf); err != nil {
		return nil, err
	}

	// The operator on a different server: a realtime primitive profile over
	// the watched server's meta-alerts, plus the composite wrapper.
	healthColl := watched + "." + core.HealthCollection
	opsSink := c.Notifier(ops, "opsp")
	opsProf := profile.NewUser("opsp-prof", "opsp", ops,
		profile.MustParse(fmt.Sprintf(`collection = "%s" AND event.type = "health-alert"`, healthColl)))
	opsProf.Class = qos.ClassRealtime
	if err := c.Service(ops).SubscribeProfile(opsProf); err != nil {
		return nil, err
	}
	cmpSink := c.Notifier(ops, "opsc")
	if _, err := c.Service(ops).SubscribeComposite("opsc", fmt.Sprintf(
		`SEQUENCE (collection = "%s" AND health.state = "degraded") THEN (collection = "%s" AND health.state = "critical") WITHIN 24h`,
		healthColl, healthColl)); err != nil {
		return nil, err
	}

	// The health engine over the watched server's own registry, stepped on
	// a virtual clock; every transition is published back into the pipeline
	// as a meta-alert (the dogfood loop).
	hrules, err := health.ParseRules(healthExpRules)
	if err != nil {
		return nil, err
	}
	hreg := obs.NewRegistry()
	obs.RegisterService(hreg, wsvc.Stats)
	var publishErr error
	heng := health.NewEngine(hreg, hrules, health.Options{
		OnTransition: func(tr health.Transition) {
			if err := wsvc.PublishHealthAlert(ctx, tr.Alert()); err != nil && publishErr == nil {
				publishErr = err
			}
		},
	})
	clock := newVClock()
	tick := func() {
		heng.TickAt(clock.Advance(soakHealthTick))
		c.Settle(ctx)
	}

	// The overload rounds, a tick after each; then the quiet tail drains
	// the rate windows and the firing rules clear.
	docs := []*collection.Document{{ID: "base", Content: "stable document"}}
	if _, _, err := c.Server(pub).Build(ctx, "X", docs); err != nil {
		return nil, err
	}
	c.Settle(ctx)
	for r := 1; r <= rounds; r++ {
		for i := 0; i < eventsPerRound; i++ {
			docs = append(docs, &collection.Document{
				ID:      fmt.Sprintf("extra-%d-%d", r, i),
				Content: fmt.Sprintf("document of round %d event %d", r, i),
			})
			if _, _, err := c.Server(pub).Build(ctx, "X", docs); err != nil {
				return nil, err
			}
		}
		c.Settle(ctx)
		tick()
	}
	for i := 0; i < 6; i++ {
		tick()
	}
	if publishErr != nil {
		return nil, fmt.Errorf("sim: E18 meta-alert publish: %w", publishErr)
	}

	out := &HealthModeResult{
		Mode:        mode.String(),
		Transitions: heng.Transitions(),
		Published:   wsvc.Stats().HealthAlerts,
		Delivered:   make(map[string]int),
	}
	out.Cycles = healthCycles(out.Transitions)
	out.DeliveredCount = countKeys(out.Delivered, opsSink.All())
	for _, n := range cmpSink.All() {
		if n.Composite != "" {
			out.CompositeFired++
		}
	}
	return out, nil
}

// HealthExpResult aggregates E18 across the three routing modes.
type HealthExpResult struct {
	Servers, Rounds, Events, Burst int
	Seed                           int64
	Modes                          []*HealthModeResult
	// TransitionsIdentical / DeliveredIdentical report cross-mode equality
	// of the engine's transition sequence and the operator's meta-alert
	// multiset.
	TransitionsIdentical bool
	DeliveredIdentical   bool
}

// RunHealthExperiment plays E18 through all three routing modes and
// compares the observations.
func RunHealthExperiment(servers, rounds, eventsPerRound, burst int, seed int64) (*HealthExpResult, error) {
	res := &HealthExpResult{
		Servers: servers, Rounds: rounds, Events: rounds * eventsPerRound, Burst: burst,
		Seed:                 seed,
		TransitionsIdentical: true,
		DeliveredIdentical:   true,
	}
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		r, err := RunHealthMode(servers, rounds, eventsPerRound, burst, mode, seed)
		if err != nil {
			return nil, fmt.Errorf("sim: E18 %s: %w", mode, err)
		}
		res.Modes = append(res.Modes, r)
	}
	first := res.Modes[0]
	for _, r := range res.Modes[1:] {
		if transitionSig(r.Transitions) != transitionSig(first.Transitions) {
			res.TransitionsIdentical = false
		}
		if !sameMultiset(r.Delivered, first.Delivered) {
			res.DeliveredIdentical = false
		}
	}
	return res, nil
}

// Check asserts the E18 acceptance bar.
func (r *HealthExpResult) Check() error {
	if !r.TransitionsIdentical {
		return fmt.Errorf("sim: E18 transition sequences differ across modes")
	}
	if !r.DeliveredIdentical {
		return fmt.Errorf("sim: E18 delivered meta-alert multisets differ across modes")
	}
	for _, m := range r.Modes {
		switch {
		case len(m.Transitions) < 3:
			return fmt.Errorf("sim: E18 %s: %d transitions, want the degraded/critical/clear walk (>= 3)", m.Mode, len(m.Transitions))
		case m.Cycles < 1:
			return fmt.Errorf("sim: E18 %s: no fire→clear cycle completed", m.Mode)
		case m.Published != int64(len(m.Transitions)):
			return fmt.Errorf("sim: E18 %s: %d transitions but %d meta-alerts published", m.Mode, len(m.Transitions), m.Published)
		case m.DeliveredCount != len(m.Transitions):
			return fmt.Errorf("sim: E18 %s: operator received %d meta-alerts of %d published", m.Mode, m.DeliveredCount, m.Published)
		case m.CompositeFired < 1:
			return fmt.Errorf("sim: E18 %s: the degraded-THEN-critical composite never fired", m.Mode)
		}
		// The walk must reach critical and return to healthy.
		sawCritical, endedHealthy := false, false
		for _, tr := range m.Transitions {
			if tr.To == health.Critical {
				sawCritical = true
			}
			endedHealthy = tr.To == health.Healthy
		}
		if !sawCritical || !endedHealthy {
			return fmt.Errorf("sim: E18 %s: walk %q never escalated to critical or never cleared", m.Mode, transitionSig(m.Transitions))
		}
	}
	return nil
}

// HealthTable runs E18 and renders one row per mode.
func HealthTable(servers, rounds, eventsPerRound, burst int, seed int64) (*metrics.Table, error) {
	r, err := RunHealthExperiment(servers, rounds, eventsPerRound, burst, seed)
	if err != nil {
		return nil, err
	}
	if err := r.Check(); err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("E18 — self-alerting health plane (%d servers, %d events vs budget %d, seed %d)",
			r.Servers, r.Events, r.Burst, r.Seed),
		"mode", "transitions", "cycles", "published", "delivered", "composite fired", "identical")
	for _, m := range r.Modes {
		t.AddRow(m.Mode, len(m.Transitions), m.Cycles, m.Published, m.DeliveredCount, m.CompositeFired,
			fmt.Sprintf("%v/%v", r.TransitionsIdentical, r.DeliveredIdentical))
	}
	return t, nil
}
