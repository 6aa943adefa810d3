package health

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/gsalert/gsalert/internal/obs"
)

// Op is a threshold comparison operator.
type Op uint8

// Comparison operators.
const (
	OpGT Op = iota
	OpGE
	OpLT
	OpLE
)

// String renders the operator in the rule-file form.
func (o Op) String() string {
	switch o {
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	default:
		return fmt.Sprintf("op-%d", int(o))
	}
}

func parseOp(s string) (Op, error) {
	switch s {
	case ">":
		return OpGT, nil
	case ">=":
		return OpGE, nil
	case "<":
		return OpLT, nil
	case "<=":
		return OpLE, nil
	default:
		return 0, fmt.Errorf("unknown operator %q (want >, >=, < or <=)", s)
	}
}

// Selector names the series a rule reads: a metric plus required label
// equalities, optionally wrapped in a quantile (pNN over a histogram) or a
// rate over a trailing window (per-second increase of a counter). A bare
// selector evaluates to the SUM over matching scalar series — so
// `gsalert_delivery_queue_depth` is the cluster-wide depth across shards
// and classes, matching the E15 Prometheus rule's sum().
type Selector struct {
	// Metric is the family name.
	Metric string
	// Labels are required label equalities; a series matches when it
	// carries every one (it may carry more).
	Labels []obs.Label
	// Quantile, in (0,1), selects a histogram quantile; the selector
	// evaluates to the MAX over matching histogram series (the worst one).
	Quantile float64
	// RateWindow, when positive, turns a counter into its per-second
	// increase over the trailing window.
	RateWindow time.Duration
}

// String renders the selector in the rule-file form.
func (s Selector) String() string {
	var b strings.Builder
	b.WriteString(s.Metric)
	if len(s.Labels) > 0 {
		sorted := make([]obs.Label, len(s.Labels))
		copy(sorted, s.Labels)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		b.WriteByte('{')
		for i, l := range sorted {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
		}
		b.WriteByte('}')
	}
	switch {
	case s.Quantile > 0:
		return fmt.Sprintf("p%d(%s)", int(s.Quantile*100+0.5), b.String())
	case s.RateWindow > 0:
		return fmt.Sprintf("rate(%s[%s])", b.String(), s.RateWindow)
	default:
		return b.String()
	}
}

// Threshold is the simple rule form: selector OP value.
type Threshold struct {
	Sel   Selector
	Op    Op
	Value float64
	// ValueIsDuration records that the value was written as a duration
	// (seconds in Value), so String round-trips "1s" rather than "1".
	ValueIsDuration bool
}

// String renders the expression in the rule-file form.
func (t Threshold) String() string {
	v := strconv.FormatFloat(t.Value, 'g', -1, 64)
	if t.ValueIsDuration {
		v = time.Duration(t.Value * float64(time.Second)).String()
	}
	return fmt.Sprintf("%s %s %s", t.Sel, t.Op, v)
}

// BurnRate is the multi-window burn-rate rule form (the Google SRE
// multiwindow multi-burn-rate alert): the error ratio Bad/Total is
// measured over a short and a long trailing window, normalised by the SLO
// error budget, and the rule's condition holds only when BOTH windows burn
// faster than Factor× budget — the short window makes the alert reset
// quickly once the burn stops, the long window keeps a brief blip from
// paging.
type BurnRate struct {
	// Bad and Total are counter selectors; the error ratio over a window w
	// is increase(Bad[w]) / increase(Total[w]) (0 when Total did not move).
	Bad, Total Selector
	// SLO is the error budget as a fraction in (0,1): 0.001 = 99.9%.
	SLO float64
	// Short and Long are the two windows; Short must be < Long.
	Short, Long time.Duration
	// Factor is the burn-rate threshold: the rule's condition holds when
	// both windows' burn rates exceed it (14.4 = the classic 2%-of-monthly-
	// budget-in-one-hour page).
	Factor float64
}

// Rule is one parsed health rule — exactly one of Expr or Burn is set.
type Rule struct {
	// Name is the rule identifier (the ALERTS alertname label).
	Name string
	// Component is the subsystem the rule judges (delivery, qos, replica,
	// exporter, ...) — the health state machine key.
	Component string
	// Severity weighs the rule in the component aggregate.
	Severity Severity
	// Expr is the threshold form.
	Expr *Threshold
	// Burn is the burn-rate form.
	Burn *BurnRate
	// For is how long the condition must hold before the rule fires
	// (hysteresis on the way up). Zero fires on the first true tick.
	For time.Duration
	// Clear is how long the condition must be gone before a firing rule
	// clears (hysteresis on the way down). Zero clears on the first false
	// tick.
	Clear time.Duration
}

// String renders the rule in the canonical rule-file form.
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule %s {\n", r.Name)
	fmt.Fprintf(&b, "\tcomponent = %s\n", r.Component)
	fmt.Fprintf(&b, "\tseverity = %s\n", r.Severity)
	switch {
	case r.Expr != nil:
		fmt.Fprintf(&b, "\texpr = %s\n", r.Expr)
	case r.Burn != nil:
		fmt.Fprintf(&b, "\tburnrate = %s / %s\n", r.Burn.Bad, r.Burn.Total)
		fmt.Fprintf(&b, "\tslo = %s\n", strconv.FormatFloat(r.Burn.SLO, 'g', -1, 64))
		fmt.Fprintf(&b, "\twindows = %s, %s\n", r.Burn.Short, r.Burn.Long)
		fmt.Fprintf(&b, "\tfactor = %s\n", strconv.FormatFloat(r.Burn.Factor, 'g', -1, 64))
	}
	if r.For > 0 {
		fmt.Fprintf(&b, "\tfor = %s\n", r.For)
	}
	if r.Clear > 0 {
		fmt.Fprintf(&b, "\tclear = %s\n", r.Clear)
	}
	b.WriteString("}\n")
	return b.String()
}

// RuleSet is an ordered collection of rules.
type RuleSet struct {
	Rules []*Rule
}

// String renders the set in the canonical rule-file form; Parse of the
// output reproduces the set (round-trip).
func (rs *RuleSet) String() string {
	var b strings.Builder
	for i, r := range rs.Rules {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// ParseRules parses the rule-file text against the metric catalog:
// references to unknown metrics, quantiles over non-histograms and rates
// over non-counters are rejected at parse time, not discovered as
// never-firing rules at 3 a.m. The catalog is not a list kept here: it is
// obs.Declared(), the table the Register* functions of internal/obs, the
// push exporter and this package's engine emit through, so a series cannot
// be exposed without being valid in a rule — and a family declared but
// absent from this process's registry (a delivery rule on gds-server)
// still parses.
func ParseRules(src string) (*RuleSet, error) {
	return Parse(src, obs.Declared())
}

// Parse parses the rule-file text. known maps metric names to kinds for
// validation; nil skips metric-existence checks (selector syntax is still
// validated).
//
// The format is line-oriented blocks:
//
//	# comment
//	rule <name> {
//		component = <word>
//		severity  = warning | critical
//		expr      = <selector> <op> <number|duration>     # threshold form
//		burnrate  = <counter> / <counter>                 # burn-rate form
//		slo       = <fraction in (0,1)>
//		windows   = <short>, <long>
//		factor    = <number>
//		for       = <duration>
//		clear     = <duration>
//	}
//
// where <selector> is `metric`, `metric{label="v",...}`, `pNN(metric{...})`
// (histogram quantile) or `rate(metric{...}[window])` (counter rate).
func Parse(src string, known map[string]obs.Kind) (*RuleSet, error) {
	rs := &RuleSet{}
	seen := map[string]bool{}
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		line := stripComment(lines[i])
		if line == "" {
			continue
		}
		name, ok := ruleHeader(line)
		if !ok {
			return nil, fmt.Errorf("health: line %d: expected `rule <name> {`, got %q", i+1, line)
		}
		if seen[name] {
			return nil, fmt.Errorf("health: line %d: duplicate rule %q", i+1, name)
		}
		seen[name] = true
		r := &Rule{Name: name}
		var burnSet, sloSet, windowsSet, factorSet bool
		body := i + 1
		closed := false
		for ; body < len(lines); body++ {
			line := stripComment(lines[body])
			if line == "" {
				continue
			}
			if line == "}" {
				closed = true
				break
			}
			key, val, ok := strings.Cut(line, "=")
			if !ok {
				return nil, fmt.Errorf("health: line %d: expected `key = value` or `}`, got %q", body+1, line)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "component":
				r.Component = val
			case "severity":
				r.Severity, err = ParseSeverity(val)
			case "expr":
				r.Expr, err = parseThreshold(val, known)
			case "burnrate":
				burnSet = true
				err = parseBurnTarget(r, val, known)
			case "slo":
				sloSet = true
				err = setBurnField(r, func(b *BurnRate) error {
					v, e := strconv.ParseFloat(val, 64)
					if e != nil || v <= 0 || v >= 1 {
						return fmt.Errorf("slo must be a fraction in (0,1), got %q", val)
					}
					b.SLO = v
					return nil
				})
			case "windows":
				windowsSet = true
				err = setBurnField(r, func(b *BurnRate) error {
					short, long, ok := strings.Cut(val, ",")
					if !ok {
						return fmt.Errorf("windows wants `<short>, <long>`, got %q", val)
					}
					s, e1 := time.ParseDuration(strings.TrimSpace(short))
					l, e2 := time.ParseDuration(strings.TrimSpace(long))
					if e1 != nil || e2 != nil || s <= 0 || l <= 0 {
						return fmt.Errorf("windows wants two positive durations, got %q", val)
					}
					if s >= l {
						return fmt.Errorf("inverted windows: short %s must be < long %s", s, l)
					}
					b.Short, b.Long = s, l
					return nil
				})
			case "factor":
				factorSet = true
				err = setBurnField(r, func(b *BurnRate) error {
					v, e := strconv.ParseFloat(val, 64)
					if e != nil || v <= 0 {
						return fmt.Errorf("factor must be > 0, got %q", val)
					}
					b.Factor = v
					return nil
				})
			case "for":
				r.For, err = time.ParseDuration(val)
			case "clear":
				r.Clear, err = time.ParseDuration(val)
			default:
				err = fmt.Errorf("unknown key %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("health: line %d: rule %s: %v", body+1, name, err)
			}
		}
		if !closed {
			return nil, fmt.Errorf("health: rule %s: missing closing `}`", name)
		}
		i = body
		switch {
		case r.Component == "":
			return nil, fmt.Errorf("health: rule %s: missing component", name)
		case r.Expr == nil && r.Burn == nil:
			return nil, fmt.Errorf("health: rule %s: needs an expr or a burnrate", name)
		case r.Expr != nil && r.Burn != nil:
			return nil, fmt.Errorf("health: rule %s: expr and burnrate are mutually exclusive", name)
		case r.Burn != nil && (!burnSet || !sloSet || !windowsSet || !factorSet):
			return nil, fmt.Errorf("health: rule %s: burn-rate rules need burnrate, slo, windows and factor", name)
		case r.Expr != nil && (sloSet || windowsSet || factorSet):
			return nil, fmt.Errorf("health: rule %s: slo/windows/factor only apply to burn-rate rules", name)
		case r.For < 0 || r.Clear < 0:
			return nil, fmt.Errorf("health: rule %s: for/clear must be >= 0", name)
		}
		rs.Rules = append(rs.Rules, r)
	}
	if len(rs.Rules) == 0 {
		return nil, fmt.Errorf("health: no rules in input")
	}
	return rs, nil
}

// setBurnField applies a burn-rate sub-key, creating the BurnRate so key
// order inside the block does not matter.
func setBurnField(r *Rule, set func(*BurnRate) error) error {
	if r.Burn == nil {
		r.Burn = &BurnRate{}
	}
	return set(r.Burn)
}

// parseBurnTarget parses `bad / total` into the rule's BurnRate.
func parseBurnTarget(r *Rule, val string, known map[string]obs.Kind) error {
	bad, total, ok := strings.Cut(val, "/")
	if !ok {
		return fmt.Errorf("burnrate wants `<bad-counter> / <total-counter>`, got %q", val)
	}
	bs, err := parseSelector(strings.TrimSpace(bad), known)
	if err != nil {
		return err
	}
	ts, err := parseSelector(strings.TrimSpace(total), known)
	if err != nil {
		return err
	}
	for _, s := range []Selector{bs, ts} {
		if s.Quantile > 0 || s.RateWindow > 0 {
			return fmt.Errorf("burnrate selectors must be bare counters, got %q", s)
		}
		if err := wantKind(s.Metric, known, obs.KindCounter, "burnrate"); err != nil {
			return err
		}
	}
	return setBurnField(r, func(b *BurnRate) error {
		b.Bad, b.Total = bs, ts
		return nil
	})
}

// parseThreshold parses `<selector> <op> <value>`.
func parseThreshold(val string, known map[string]obs.Kind) (*Threshold, error) {
	// Split on the operator: scan for the first top-level comparison. Label
	// values are quoted, so a naive field scan over whitespace works as
	// long as selectors are written without internal spaces.
	fields := strings.Fields(val)
	if len(fields) != 3 {
		return nil, fmt.Errorf("expr wants `<selector> <op> <value>`, got %q", val)
	}
	sel, err := parseSelector(fields[0], known)
	if err != nil {
		return nil, err
	}
	op, err := parseOp(fields[1])
	if err != nil {
		return nil, err
	}
	t := &Threshold{Sel: sel, Op: op}
	if v, err := strconv.ParseFloat(fields[2], 64); err == nil {
		t.Value = v
	} else if d, err := time.ParseDuration(fields[2]); err == nil {
		t.Value = d.Seconds()
		t.ValueIsDuration = true
	} else {
		return nil, fmt.Errorf("expr value %q is neither a number nor a duration", fields[2])
	}
	return t, nil
}

// parseSelector parses `metric`, `metric{l="v"}`, `pNN(sel)` and
// `rate(sel[window])`.
func parseSelector(s string, known map[string]obs.Kind) (Selector, error) {
	switch {
	case strings.HasPrefix(s, "p") && strings.Contains(s, "("):
		open := strings.IndexByte(s, '(')
		n, err := strconv.Atoi(s[1:open])
		if err != nil || n <= 0 || n >= 100 || !strings.HasSuffix(s, ")") {
			return Selector{}, fmt.Errorf("malformed quantile selector %q (want pNN(metric), 0 < NN < 100)", s)
		}
		inner, err := parseSelector(s[open+1:len(s)-1], known)
		if err != nil {
			return Selector{}, err
		}
		if inner.Quantile > 0 || inner.RateWindow > 0 {
			return Selector{}, fmt.Errorf("quantile selector %q cannot nest", s)
		}
		if err := wantKind(inner.Metric, known, obs.KindHistogram, "quantile"); err != nil {
			return Selector{}, err
		}
		inner.Quantile = float64(n) / 100
		return inner, nil
	case strings.HasPrefix(s, "rate("):
		if !strings.HasSuffix(s, ")") {
			return Selector{}, fmt.Errorf("malformed rate selector %q", s)
		}
		body := s[len("rate(") : len(s)-1]
		open := strings.LastIndexByte(body, '[')
		if open < 0 || !strings.HasSuffix(body, "]") {
			return Selector{}, fmt.Errorf("rate selector %q wants a [window]", s)
		}
		w, err := time.ParseDuration(body[open+1 : len(body)-1])
		if err != nil || w <= 0 {
			return Selector{}, fmt.Errorf("rate selector %q: bad window: %v", s, err)
		}
		inner, err := parseSelector(body[:open], known)
		if err != nil {
			return Selector{}, err
		}
		if inner.Quantile > 0 || inner.RateWindow > 0 {
			return Selector{}, fmt.Errorf("rate selector %q cannot nest", s)
		}
		if err := wantKind(inner.Metric, known, obs.KindCounter, "rate"); err != nil {
			return Selector{}, err
		}
		inner.RateWindow = w
		return inner, nil
	}
	sel := Selector{}
	name := s
	if open := strings.IndexByte(s, '{'); open >= 0 {
		if !strings.HasSuffix(s, "}") {
			return Selector{}, fmt.Errorf("malformed label block in %q", s)
		}
		name = s[:open]
		var err error
		sel.Labels, err = parseLabels(s[open+1 : len(s)-1])
		if err != nil {
			return Selector{}, fmt.Errorf("selector %q: %v", s, err)
		}
	}
	if name == "" {
		return Selector{}, fmt.Errorf("empty metric name in %q", s)
	}
	if known != nil {
		if _, ok := known[name]; !ok {
			return Selector{}, fmt.Errorf("unknown metric %q", name)
		}
	}
	sel.Metric = name
	return sel, nil
}

// wantKind checks a catalog kind constraint when a catalog is present.
func wantKind(metric string, known map[string]obs.Kind, want obs.Kind, ctx string) error {
	if known == nil {
		return nil
	}
	k, ok := known[metric]
	if !ok {
		return fmt.Errorf("unknown metric %q", metric)
	}
	if k != want {
		return fmt.Errorf("%s selector needs a %s, but %q is a %s", ctx, want, metric, k)
	}
	return nil
}

// parseLabels parses `a="b",c="d"`.
func parseLabels(s string) ([]obs.Label, error) {
	var out []obs.Label
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("malformed label %q (want name=\"value\")", part)
		}
		uq, err := strconv.Unquote(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("label %s: value must be quoted: %v", name, err)
		}
		out = append(out, obs.L(strings.TrimSpace(name), uq))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty label block")
	}
	return out, nil
}

// ruleHeader matches `rule <name> {`.
func ruleHeader(line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "rule ")
	if !ok {
		return "", false
	}
	name, ok := strings.CutSuffix(strings.TrimSpace(rest), "{")
	if !ok {
		return "", false
	}
	name = strings.TrimSpace(name)
	if name == "" || strings.ContainsAny(name, " \t{}") {
		return "", false
	}
	return name, true
}

// stripComment trims whitespace and removes a trailing `#` comment.
func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		// A # inside a quoted label value stays: only strip when not inside
		// quotes.
		if strings.Count(line[:i], `"`)%2 == 0 {
			line = line[:i]
		}
	}
	return strings.TrimSpace(line)
}

// DefaultRulesText is the built-in rule set, keyed one-for-one to the
// E15/E16 SLO signatures that examples/self-monitoring ships as external
// Prometheus rules — the same judgments, evaluated in-process.
const DefaultRulesText = `# Built-in health rules (docs/HEALTH.md). Mirrors the E15 alert set in
# examples/self-monitoring/alerts/gsalert-alerts.yaml.

# DeliveryRealtimeP99SLO: realtime end-to-end p99 above 1s.
rule delivery-realtime-p99 {
	component = delivery
	severity = critical
	expr = p99(gsalert_delivery_latency_seconds{class="realtime"}) > 1s
	for = 30s
	clear = 1m
}

# DeliveryActualLoss as a multi-window burn rate over a 99.9% delivery SLO:
# page when drops consume the error budget 14.4x too fast over both windows.
rule delivery-loss-burn {
	component = delivery
	severity = critical
	burnrate = gsalert_delivery_dropped_total / gsalert_delivery_enqueued_total
	slo = 0.001
	windows = 5m, 1h
	factor = 14.4
	clear = 5m
}

# DeliveryQueueSaturated: cluster-wide queue depth (summed over shards and
# classes) persistently above the backlog bar.
rule delivery-queue-saturated {
	component = delivery
	severity = warning
	expr = gsalert_delivery_queue_depth > 100
	for = 5m
	clear = 5m
}

# QoSDeferredGrowth: normal-class traffic is being deferred faster than
# mailboxes drain.
rule qos-deferred-backlog {
	component = qos
	severity = warning
	expr = rate(gsalert_qos_deferred_total[1m]) > 10
	for = 1m
	clear = 2m
}

# ExporterDroppingSnapshots: the push exporter's bounded queue is backing
# up or evicting blocks. The queue holds 8 blocks (the exporter's default
# QueueSize), so a full queue reads 8, never more: the bar is half of it.
rule exporter-queue-backlog {
	component = exporter
	severity = warning
	expr = gsalert_exporter_queue_depth > 4
	for = 1m
	clear = 2m
}
rule exporter-drops {
	component = exporter
	severity = warning
	expr = rate(gsalert_exporter_dropped_total[5m]) > 0
	clear = 5m
}

# ReplicationStreamErrors / standby lag: the replication stream is failing
# or the standby is falling behind the primary's position.
rule replica-stream-lag {
	component = replica
	severity = critical
	expr = gsalert_replica_stream_lag > 64
	for = 30s
	clear = 1m
}
rule replica-stream-errors {
	component = replica
	severity = warning
	expr = rate(gsalert_replica_errors_total[1m]) > 0
	clear = 2m
}
`

// DefaultRules parses DefaultRulesText; the defaults are covered by tests,
// so the panic is unreachable in a released build.
func DefaultRules() *RuleSet {
	rs, err := ParseRules(DefaultRulesText)
	if err != nil {
		panic("health: default rules: " + err.Error())
	}
	return rs
}
