package core

import (
	"context"
	"strconv"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/logging"
)

// HealthAlert is one health-plane component state transition, published
// into the pipeline as a first-class event (the dogfood: the system
// subscribes to its own judgment). Defined here rather than importing
// internal/health so the dependency points health→core at the wiring
// layer, never core→health.
type HealthAlert struct {
	// Component is the subsystem whose state changed (delivery, qos,
	// replica, exporter, ...).
	Component string
	// From and To are the state names either side of the change (healthy,
	// degraded, critical).
	From, To string
	// Rule names the rule that tipped the component; Severity is its
	// severity (warning, critical).
	Rule, Severity string
	// Value is the rule's last evaluated input.
	Value float64
	// At is the engine tick time of the transition.
	At time.Time
}

// HealthCollection is the reserved collection name health-alert events are
// published under, qualified by the emitting server's name — so profiles
// can scope to one server's health ("gs1._health") or match the event type
// across the network.
const HealthCollection = "_health"

// PublishHealthAlert publishes a meta-alert through the ordinary event
// path: local profile filtering (QoS admission included), auxiliary
// forwarding and GDS dissemination in whatever routing mode is active.
// Operators subscribe with the existing profile language — the transition
// fields ride as document metadata, so predicates like
// `health.state = "critical"` and composite wrappers like
// `SEQUENCE (health.state = "degraded") THEN (health.state = "critical")
// WITHIN 1m` work unchanged.
func (s *Service) PublishHealthAlert(ctx context.Context, a HealthAlert) error {
	name := event.QName{Host: s.name, Collection: HealthCollection}
	ev := &event.Event{
		ID:         s.nextID("health"),
		Type:       event.TypeHealthAlert,
		Collection: name,
		Origin:     name,
		Chain:      []event.QName{name},
		Docs: []event.DocRef{{
			ID: a.Component + ":" + a.To,
			Metadata: map[string][]string{
				"health.component": {a.Component},
				"health.state":     {a.To},
				"health.from":      {a.From},
				"health.severity":  {a.Severity},
				"health.rule":      {a.Rule},
				"health.value":     {strconv.FormatFloat(a.Value, 'g', -1, 64)},
			},
			Snippet: "health: " + a.Component + " " + a.From + " -> " + a.To + " (" + a.Rule + ")",
		}},
		OccurredAt: a.At,
	}
	_, err := s.publishEvent(ctx, ev)
	if err == nil {
		s.stats.healthAlerts.Inc()
		s.log.Info("health alert published",
			logging.String("component", a.Component), logging.String("to", a.To),
			logging.String("rule", a.Rule))
	}
	return err
}
