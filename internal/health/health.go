// Package health is the self-alerting plane: an SLO rule engine that
// evaluates threshold and multi-window burn-rate rules against the obs
// metric registry at scrape cadence and drives a per-component health
// state machine (healthy / degraded / critical) with hysteresis.
//
// The design closes the observability loop from the system's own side.
// PRs 6 and 8 made the pipeline scrapeable and traceable; this package
// makes it judge itself: the same E15/E16 SLO signatures that ship as
// external Prometheus rules in examples/self-monitoring are built in as
// default health rules (per-class p99, realtime drops as a burn rate,
// deferred backlog, exporter queue, replica stream lag), evaluated
// in-process with zero hot-path cost — the engine only reads the
// registry's lock-free instruments on its own tick, exactly like a
// scrape.
//
// Surfaces:
//
//   - /healthz and /readyz on the ops mux (Endpoints), the latter gating
//     on pluggable readiness checks — pipeline started, GDS registered,
//     standby caught up — so failover machinery has a signal to flip on.
//   - Firing rules rendered as Prometheus ALERTS{alertname,severity,
//     component} series plus gsalert_health_* self-monitoring counters
//     (Engine.Register).
//   - The dogfood: every component state transition can be published as a
//     first-class "health-alert" event into core.Service via the
//     OnTransition hook, so operators subscribe to meta-alerts with the
//     ordinary profile language — composite wrappers like
//     `SEQUENCE (health.state = "degraded") THEN (health.state =
//     "critical") WITHIN 1m` work unchanged, and the alerts inherit QoS
//     classes, durable mailboxes and replication from the pipeline they
//     describe.
//
// See docs/HEALTH.md for the rule grammar, the burn-rate math and the
// dogfooding walkthrough, and experiment E18 (docs/EXPERIMENTS.md) for
// the acceptance bar.
package health

import (
	"fmt"
	"time"

	"github.com/gsalert/gsalert/internal/core"
)

// State is one component's health, ordered by badness so the component
// aggregate is a max over its rules.
type State uint8

// Health states.
const (
	// Healthy: no rule for the component is firing.
	Healthy State = iota
	// Degraded: at least one warning-severity rule is firing.
	Degraded
	// Critical: at least one critical-severity rule is firing.
	Critical
)

// String names the state (the wire and profile-predicate form).
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("state-%d", int(s))
	}
}

// Severity is a rule's weight in the component aggregate.
type Severity uint8

// Rule severities.
const (
	// SevWarning drives its component to Degraded while firing.
	SevWarning Severity = iota
	// SevCritical drives its component to Critical while firing.
	SevCritical
)

// String names the severity (the rule-file and ALERTS-label form).
func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevCritical:
		return "critical"
	default:
		return fmt.Sprintf("severity-%d", int(s))
	}
}

// ParseState inverts State.String.
func ParseState(s string) (State, error) {
	switch s {
	case "healthy":
		return Healthy, nil
	case "degraded":
		return Degraded, nil
	case "critical":
		return Critical, nil
	default:
		return 0, fmt.Errorf("health: unknown state %q (want healthy, degraded or critical)", s)
	}
}

// MarshalJSON renders the state by name, so /healthz JSON reads
// "degraded" rather than 1.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the name form (gs-client health decodes /healthz).
func (s *State) UnmarshalJSON(raw []byte) error {
	if len(raw) < 2 || raw[0] != '"' || raw[len(raw)-1] != '"' {
		return fmt.Errorf("health: malformed state %s", raw)
	}
	v, err := ParseState(string(raw[1 : len(raw)-1]))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseSeverity inverts Severity.String.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "warning":
		return SevWarning, nil
	case "critical":
		return SevCritical, nil
	default:
		return 0, fmt.Errorf("health: unknown severity %q (want warning or critical)", s)
	}
}

// state returns the component state a firing rule of this severity implies.
func (s Severity) state() State {
	if s == SevCritical {
		return Critical
	}
	return Degraded
}

// Transition is one component state change — the unit of the transition
// log, of the gsalert_health_transitions_total counter and of the
// dogfooded health-alert events.
type Transition struct {
	// Component is the subsystem whose state changed.
	Component string `json:"component"`
	// From and To are the states either side of the change.
	From State `json:"from"`
	To   State `json:"to"`
	// Rule names the rule that tipped the component — the highest-severity
	// firing rule after the change, or the last one to clear on the way
	// down.
	Rule string `json:"rule"`
	// Severity is that rule's severity.
	Severity string `json:"severity"`
	// Value is the rule's last evaluated value (threshold input or the
	// short-window burn rate).
	Value float64 `json:"value"`
	// At is the engine tick time of the change.
	At time.Time `json:"at"`
}

// Alert renders the transition as the pipeline's meta-alert form — what
// every OnTransition dogfood hook hands to core.Service.PublishHealthAlert.
func (t Transition) Alert() core.HealthAlert {
	return core.HealthAlert{
		Component: t.Component,
		From:      t.From.String(),
		To:        t.To.String(),
		Rule:      t.Rule,
		Severity:  t.Severity,
		Value:     t.Value,
		At:        t.At,
	}
}

// RuleStateName names a rule's evaluation state in /healthz output.
type RuleStateName string

// Rule evaluation states.
const (
	// RuleInactive: the condition does not hold.
	RuleInactive RuleStateName = "inactive"
	// RulePending: the condition holds but has not yet held for `for`.
	RulePending RuleStateName = "pending"
	// RuleFiring: the condition has held for `for` and has not been clear
	// for `clear`.
	RuleFiring RuleStateName = "firing"
)
