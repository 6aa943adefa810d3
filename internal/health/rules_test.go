package health

import (
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/obs"
)

// TestDefaultRulesParse pins the built-in rule set: it parses against the
// catalog and covers every component the E15/E16 signatures judge.
func TestDefaultRulesParse(t *testing.T) {
	rs := DefaultRules()
	if len(rs.Rules) != 8 {
		t.Fatalf("default rules = %d, want 8", len(rs.Rules))
	}
	want := []string{"delivery", "exporter", "qos", "replica"}
	got := rs.Components()
	if len(got) != len(want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("components = %v, want %v", got, want)
		}
	}
}

// TestRuleSetRoundTrip checks Parse(String(rs)) reproduces the set —
// the canonical rendering is itself valid rule-file input.
func TestRuleSetRoundTrip(t *testing.T) {
	rs := DefaultRules()
	first := rs.String()
	rs2, err := ParseRules(first)
	if err != nil {
		t.Fatalf("reparse canonical form: %v", err)
	}
	second := rs2.String()
	if first != second {
		t.Fatalf("round-trip drifted:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestParseThresholdForms exercises the selector grammar.
func TestParseThresholdForms(t *testing.T) {
	src := `
rule a {
	component = delivery
	severity = warning
	expr = gsalert_delivery_queue_depth{shard="0",class="bulk"} >= 5
}
rule b {
	component = delivery
	severity = critical
	expr = p95(gsalert_delivery_latency_seconds) > 250ms
	for = 10s
	clear = 30s
}
rule c {
	component = qos
	severity = warning
	expr = rate(gsalert_qos_deferred_total[2m]) > 0.5
}
`
	rs, err := ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := rs.Rules[0], rs.Rules[1], rs.Rules[2]
	if len(a.Expr.Sel.Labels) != 2 || a.Expr.Op != OpGE || a.Expr.Value != 5 {
		t.Fatalf("rule a parsed wrong: %+v", a.Expr)
	}
	if b.Expr.Sel.Quantile != 0.95 || b.Expr.Value != 0.25 || !b.Expr.ValueIsDuration {
		t.Fatalf("rule b parsed wrong: %+v", b.Expr)
	}
	if b.For != 10*time.Second || b.Clear != 30*time.Second {
		t.Fatalf("rule b hysteresis wrong: for=%s clear=%s", b.For, b.Clear)
	}
	if c.Expr.Sel.RateWindow != 2*time.Minute {
		t.Fatalf("rule c window = %s, want 2m", c.Expr.Sel.RateWindow)
	}
}

// TestParseRejections pins every validation error the grammar promises.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown metric", `
rule r {
	component = x
	severity = warning
	expr = gsalert_no_such_metric > 1
}`, "unknown metric"},
		{"inverted windows", `
rule r {
	component = x
	severity = critical
	burnrate = gsalert_delivery_dropped_total / gsalert_delivery_enqueued_total
	slo = 0.001
	windows = 1h, 5m
	factor = 14.4
}`, "inverted windows"},
		{"equal windows", `
rule r {
	component = x
	severity = critical
	burnrate = gsalert_delivery_dropped_total / gsalert_delivery_enqueued_total
	slo = 0.001
	windows = 5m, 5m
	factor = 14.4
}`, "inverted windows"},
		{"quantile over counter", `
rule r {
	component = x
	severity = warning
	expr = p99(gsalert_qos_deferred_total) > 1
}`, "needs a histogram"},
		{"rate over gauge", `
rule r {
	component = x
	severity = warning
	expr = rate(gsalert_delivery_queue_depth[1m]) > 1
}`, "needs a counter"},
		{"slo out of range", `
rule r {
	component = x
	severity = critical
	burnrate = gsalert_delivery_dropped_total / gsalert_delivery_enqueued_total
	slo = 1.5
	windows = 5m, 1h
	factor = 14.4
}`, "slo must be a fraction"},
		{"factor nonpositive", `
rule r {
	component = x
	severity = critical
	burnrate = gsalert_delivery_dropped_total / gsalert_delivery_enqueued_total
	slo = 0.001
	windows = 5m, 1h
	factor = 0
}`, "factor must be > 0"},
		{"duplicate names", `
rule r {
	component = x
	severity = warning
	expr = gsalert_delivery_queue_depth > 1
}
rule r {
	component = x
	severity = warning
	expr = gsalert_delivery_queue_depth > 2
}`, "duplicate rule"},
		{"missing component", `
rule r {
	severity = warning
	expr = gsalert_delivery_queue_depth > 1
}`, "missing component"},
		{"expr and burnrate together", `
rule r {
	component = x
	severity = warning
	expr = gsalert_delivery_queue_depth > 1
	burnrate = gsalert_delivery_dropped_total / gsalert_delivery_enqueued_total
	slo = 0.001
	windows = 5m, 1h
	factor = 14.4
}`, "mutually exclusive"},
		{"burnrate missing factor", `
rule r {
	component = x
	severity = critical
	burnrate = gsalert_delivery_dropped_total / gsalert_delivery_enqueued_total
	slo = 0.001
	windows = 5m, 1h
}`, "need burnrate, slo, windows and factor"},
		{"bad severity", `
rule r {
	component = x
	severity = fatal
	expr = gsalert_delivery_queue_depth > 1
}`, "unknown severity"},
		{"unclosed block", `
rule r {
	component = x
	severity = warning
	expr = gsalert_delivery_queue_depth > 1`, "missing closing"},
		{"unknown key", `
rule r {
	component = x
	severity = warning
	expr = gsalert_delivery_queue_depth > 1
	threshold = 5
}`, "unknown key"},
		{"empty input", `# only comments`, "no rules"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseRules(tc.src)
			if err == nil {
				t.Fatalf("parse accepted %q, want error containing %q", tc.name, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseWithoutCatalog checks nil-catalog parsing skips metric
// existence checks but keeps syntax validation.
func TestParseWithoutCatalog(t *testing.T) {
	src := `
rule r {
	component = x
	severity = warning
	expr = totally_custom_metric > 1
}`
	if _, err := Parse(src, nil); err != nil {
		t.Fatalf("nil catalog should accept unknown metrics: %v", err)
	}
	if _, err := Parse(`rule r {
	component = x
	severity = warning
	expr = metric >!> 1
}`, nil); err == nil {
		t.Fatal("nil catalog must still reject bad operators")
	}
}

// TestCatalogKinds spot-checks the kind table the validators consult.
func TestCatalogKinds(t *testing.T) {
	cat := obs.Declared()
	for name, want := range map[string]obs.Kind{
		"gsalert_delivery_dropped_total":   obs.KindCounter,
		"gsalert_delivery_queue_depth":     obs.KindGauge,
		"gsalert_delivery_latency_seconds": obs.KindHistogram,
		"gsalert_replica_stream_lag":       obs.KindGauge,
		"ALERTS":                           obs.KindGauge,
	} {
		got, ok := cat[name]
		if !ok {
			t.Fatalf("catalog is missing %s", name)
		}
		if got != want {
			t.Fatalf("catalog[%s] = %v, want %v", name, got, want)
		}
	}
}

// TestRulesOverLoggingSeriesParse pins the drift the hand-kept catalog had:
// the gsalert_logging_* series were registered on /metrics but missing from
// rule validation, so `gs-server -health-rules` rejected any rule over them
// with "unknown metric". The catalog is the declaration table now.
func TestRulesOverLoggingSeriesParse(t *testing.T) {
	rs, err := ParseRules(`
rule log-ring-drops {
	component = logging
	severity  = warning
	expr      = rate(gsalert_logging_dropped_total[1m]) > 0
}
rule flight-dumps {
	component = logging
	severity  = warning
	expr      = gsalert_logging_dumps_total > 0
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rs.Rules))
	}
	// Kind checks still bite: a quantile over a logging counter is rejected.
	if _, err := ParseRules(`
rule bad {
	component = logging
	severity  = warning
	expr      = p99(gsalert_logging_records_total) > 1
}`); err == nil || !strings.Contains(err.Error(), "needs a histogram") {
		t.Fatalf("quantile over a counter: err = %v, want a kind error", err)
	}
}
