package health

import (
	"sort"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/obs"
)

// Source is where the engine reads metrics — satisfied by *obs.Registry.
// The indirection keeps the engine testable against synthetic catalogs.
type Source interface {
	Gather() ([]obs.Sample, []obs.HistogramSample)
}

// Options tune an Engine.
type Options struct {
	// OnTransition, when set, is invoked (outside the engine lock, in tick
	// order) for every component state change — the dogfood hook that
	// publishes health-alert events into core.Service.
	OnTransition func(Transition)
	// MaxTransitions bounds the in-memory transition log (drop-oldest).
	// Zero means 256.
	MaxTransitions int
	// Log is the engine's component logger (docs/LOGGING.md): every state
	// transition is recorded at warn (degrading) or info (recovering), so a
	// flight-recorder bundle always carries the health timeline that led to
	// its capture. Nil disables logging.
	Log *logging.Logger
}

// ruleRun is the per-rule evaluation state machine.
type ruleRun struct {
	rule *Rule
	// name is the rendered selector or burn target, the history-ring key.
	state RuleStateName
	// condSince is when the condition started holding (pending clock).
	condSince time.Time
	// lastTrue is when the condition last held (clear clock).
	lastTrue time.Time
	// since is when the rule entered its current state.
	since time.Time
	// value is the last evaluated input (threshold LHS or short-window burn).
	value float64
	// histories hold (t, value) points per selector for rate/burn windows.
	histories map[string]*history
}

// history is a bounded ring of timestamped counter readings for one
// selector, used to compute increases over trailing windows.
type history struct {
	points []point
}

type point struct {
	t time.Time
	v float64
}

// add appends a reading and prunes points older than keep before t.
func (h *history) add(t time.Time, v float64, keep time.Duration) {
	h.points = append(h.points, point{t, v})
	cut := t.Add(-keep)
	i := 0
	for i < len(h.points)-1 && h.points[i].t.Before(cut) {
		i++
	}
	if i > 0 {
		h.points = append(h.points[:0], h.points[i:]...)
	}
}

// increase reports the counter increase over the trailing window ending at
// now: current value minus the newest reading at or before now-window
// (falling back to the oldest retained reading while the ring is still
// filling). Counter resets clamp to 0 rather than reporting negative.
func (h *history) increase(now time.Time, window time.Duration) (float64, bool) {
	if len(h.points) < 2 {
		return 0, false
	}
	cut := now.Add(-window)
	base := h.points[0]
	for _, p := range h.points {
		if p.t.After(cut) {
			break
		}
		base = p
	}
	d := h.points[len(h.points)-1].v - base.v
	if d < 0 {
		d = 0
	}
	return d, true
}

// componentRun tracks one component's aggregate state.
type componentRun struct {
	state State
	since time.Time
}

// Engine evaluates a RuleSet against a Source on each Tick and maintains
// per-rule and per-component state. All methods are safe for concurrent
// use; Gather-side cost is identical to a scrape and nothing is touched on
// the instrumented hot paths.
type Engine struct {
	src   Source
	rules *RuleSet
	opts  Options

	mu              sync.Mutex
	runs            []*ruleRun
	components      map[string]*componentRun
	transitions     []Transition
	transitionCount map[string]uint64
	evals           uint64
	started         time.Time

	readyMu sync.Mutex
	ready   []readinessCheck

	startOnce sync.Once
	closeOnce sync.Once
	closeCh   chan struct{}
	loop      sync.WaitGroup
}

type readinessCheck struct {
	name  string
	check func() error
}

// NewEngine builds an engine over src with the given rules (nil rules
// means DefaultRules).
func NewEngine(src Source, rules *RuleSet, opts Options) *Engine {
	if rules == nil {
		rules = DefaultRules()
	}
	if opts.MaxTransitions <= 0 {
		opts.MaxTransitions = 256
	}
	e := &Engine{
		src:     src,
		rules:   rules,
		opts:    opts,
		closeCh: make(chan struct{}),
	}
	now := time.Now()
	e.started = now
	e.components = map[string]*componentRun{}
	e.transitionCount = map[string]uint64{}
	for _, r := range rules.Rules {
		e.runs = append(e.runs, &ruleRun{
			rule:      r,
			state:     RuleInactive,
			since:     now,
			histories: map[string]*history{},
		})
		if _, ok := e.components[r.Component]; !ok {
			e.components[r.Component] = &componentRun{state: Healthy, since: now}
		}
	}
	return e
}

// Rules exposes the engine's rule set (for /healthz and rendering).
func (e *Engine) Rules() *RuleSet { return e.rules }

// Start launches the wall-clock evaluation loop at the given cadence; a
// second Start is a no-op.
func (e *Engine) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	e.startOnce.Do(func() {
		e.loop.Add(1)
		go func() {
			defer e.loop.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-e.closeCh:
					return
				case <-t.C:
					e.Tick()
				}
			}
		}()
	})
}

// Close stops the Start loop, if one is running, and returns once a tick in
// progress — its Gather and OnTransition calls included — has finished.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.closeCh) })
	e.loop.Wait()
}

// Tick evaluates all rules once at the current wall-clock time.
func (e *Engine) Tick() { e.TickAt(time.Now()) }

// TickAt evaluates all rules once at the given instant — the deterministic
// entry point for sim experiments driving a virtual clock.
func (e *Engine) TickAt(now time.Time) {
	scalars, hists := e.src.Gather()

	e.mu.Lock()
	e.evals++
	var fired []Transition
	for _, run := range e.runs {
		cond, value := e.eval(run, scalars, hists, now)
		run.value = value
		e.step(run, cond, now)
	}
	// Re-aggregate components from rule states.
	for name, comp := range e.components {
		next := Healthy
		var topRule *ruleRun
		for _, run := range e.runs {
			if run.rule.Component != name || run.state != RuleFiring {
				continue
			}
			if s := run.rule.Severity.state(); s > next || topRule == nil {
				next = s
				topRule = run
			}
		}
		if next == comp.state {
			continue
		}
		tr := Transition{
			Component: name,
			From:      comp.state,
			To:        next,
			At:        now,
		}
		if topRule != nil {
			tr.Rule = topRule.rule.Name
			tr.Severity = topRule.rule.Severity.String()
			tr.Value = topRule.value
		} else {
			// Cleared: attribute to the most recently cleared rule.
			var last *ruleRun
			for _, run := range e.runs {
				if run.rule.Component != name {
					continue
				}
				if last == nil || run.since.After(last.since) {
					last = run
				}
			}
			if last != nil {
				tr.Rule = last.rule.Name
				tr.Severity = last.rule.Severity.String()
				tr.Value = last.value
			}
		}
		comp.state = next
		comp.since = now
		e.transitionCount[name]++
		e.transitions = append(e.transitions, tr)
		if over := len(e.transitions) - e.opts.MaxTransitions; over > 0 {
			e.transitions = append(e.transitions[:0], e.transitions[over:]...)
		}
		fired = append(fired, tr)
	}
	onTransition := e.opts.OnTransition
	e.mu.Unlock()

	if lg := e.opts.Log; lg != nil && len(fired) > 0 {
		sort.Slice(fired, func(i, j int) bool { return fired[i].Component < fired[j].Component })
		for _, tr := range fired {
			attrs := []logging.Attr{
				logging.String("component", tr.Component),
				logging.String("from", tr.From.String()), logging.String("to", tr.To.String()),
				logging.String("rule", tr.Rule),
			}
			if tr.To == Healthy {
				lg.Info("component recovered", attrs...)
			} else {
				lg.Warn("component degraded", attrs...)
			}
		}
	}

	if onTransition != nil {
		// Deterministic order for the dogfooded events: by component name.
		sort.Slice(fired, func(i, j int) bool { return fired[i].Component < fired[j].Component })
		for _, tr := range fired {
			onTransition(tr)
		}
	}
}

// step advances one rule's inactive/pending/firing machine given this
// tick's condition.
func (e *Engine) step(run *ruleRun, cond bool, now time.Time) {
	if cond {
		run.lastTrue = now
	}
	switch run.state {
	case RuleInactive:
		if cond {
			run.condSince = now
			if run.rule.For <= 0 {
				run.state = RuleFiring
			} else {
				run.state = RulePending
			}
			run.since = now
		}
	case RulePending:
		switch {
		case !cond:
			run.state = RuleInactive
			run.since = now
		case now.Sub(run.condSince) >= run.rule.For:
			run.state = RuleFiring
			run.since = now
		}
	case RuleFiring:
		if !cond && now.Sub(run.lastTrue) >= run.rule.Clear {
			run.state = RuleInactive
			run.since = now
		}
	}
}

// eval computes one rule's condition and representative value against the
// gathered samples.
func (e *Engine) eval(run *ruleRun, scalars []obs.Sample, hists []obs.HistogramSample, now time.Time) (bool, float64) {
	r := run.rule
	if r.Burn != nil {
		return e.evalBurn(run, r.Burn, scalars, now)
	}
	t := r.Expr
	var v float64
	switch {
	case t.Sel.Quantile > 0:
		v = maxQuantile(hists, t.Sel)
	case t.Sel.RateWindow > 0:
		sum, _ := sumScalar(scalars, t.Sel)
		h := run.hist(t.Sel.String())
		h.add(now, sum, t.Sel.RateWindow+t.Sel.RateWindow/2)
		inc, ok := h.increase(now, t.Sel.RateWindow)
		if !ok {
			return false, 0
		}
		v = inc / t.Sel.RateWindow.Seconds()
	default:
		v, _ = sumScalar(scalars, t.Sel)
	}
	return compare(v, t.Op, t.Value), v
}

// evalBurn computes the multi-window burn rate: increase(bad)/increase
// (total), each over the short and the long window, normalised by the SLO.
// The condition holds when BOTH windows exceed the factor.
func (e *Engine) evalBurn(run *ruleRun, b *BurnRate, scalars []obs.Sample, now time.Time) (bool, float64) {
	bad, _ := sumScalar(scalars, b.Bad)
	total, _ := sumScalar(scalars, b.Total)
	keep := b.Long + b.Long/2
	bh := run.hist("bad:" + b.Bad.String())
	th := run.hist("total:" + b.Total.String())
	bh.add(now, bad, keep)
	th.add(now, total, keep)

	burn := func(w time.Duration) (float64, bool) {
		db, ok1 := bh.increase(now, w)
		dt, ok2 := th.increase(now, w)
		if !ok1 || !ok2 || dt <= 0 {
			return 0, ok1 && ok2
		}
		return (db / dt) / b.SLO, true
	}
	short, okS := burn(b.Short)
	long, okL := burn(b.Long)
	return okS && okL && short > b.Factor && long > b.Factor, short
}

// hist returns (creating if needed) the named history ring.
func (run *ruleRun) hist(key string) *history {
	h := run.histories[key]
	if h == nil {
		h = &history{}
		run.histories[key] = h
	}
	return h
}

// sumScalar sums all scalar samples matching the selector.
func sumScalar(scalars []obs.Sample, sel Selector) (float64, bool) {
	var sum float64
	matched := false
	for i := range scalars {
		if scalars[i].Name != sel.Metric || !labelsMatch(scalars[i].Labels, sel.Labels) {
			continue
		}
		sum += scalars[i].Value
		matched = true
	}
	return sum, matched
}

// maxQuantile takes the selector's quantile over every matching histogram
// and returns the worst (max), in seconds.
func maxQuantile(hists []obs.HistogramSample, sel Selector) float64 {
	var worst float64
	for i := range hists {
		if hists[i].Name != sel.Metric || !labelsMatch(hists[i].Labels, sel.Labels) {
			continue
		}
		if hists[i].H.Count() == 0 {
			continue
		}
		if q := hists[i].H.Quantile(sel.Quantile).Seconds(); q > worst {
			worst = q
		}
	}
	return worst
}

// labelsMatch reports whether the sample labels carry every required
// equality (extra sample labels are allowed).
func labelsMatch(have, want []obs.Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h.Name == w.Name && h.Value == w.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// compare applies a threshold operator.
func compare(v float64, op Op, bound float64) bool {
	switch op {
	case OpGT:
		return v > bound
	case OpGE:
		return v >= bound
	case OpLT:
		return v < bound
	case OpLE:
		return v <= bound
	default:
		return false
	}
}

// RuleStatus is one rule's live state for /healthz.
type RuleStatus struct {
	Name      string        `json:"name"`
	Component string        `json:"component"`
	Severity  string        `json:"severity"`
	State     RuleStateName `json:"state"`
	Since     time.Time     `json:"since"`
	Value     float64       `json:"value"`
	Expr      string        `json:"expr"`
}

// ComponentStatus is one component's live state for /healthz.
type ComponentStatus struct {
	Name  string    `json:"name"`
	State State     `json:"state"`
	Since time.Time `json:"since"`
}

// Status is the full /healthz document.
type Status struct {
	// State is the worst component state.
	State       State             `json:"state"`
	Components  []ComponentStatus `json:"components"`
	Rules       []RuleStatus      `json:"rules"`
	Transitions []Transition      `json:"transitions"`
	Evals       uint64            `json:"evals"`
	Started     time.Time         `json:"started"`
}

// Snapshot captures the engine's state for /healthz and gs-client health.
func (e *Engine) Snapshot() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{Evals: e.evals, Started: e.started}
	for name, comp := range e.components {
		st.Components = append(st.Components, ComponentStatus{Name: name, State: comp.state, Since: comp.since})
		if comp.state > st.State {
			st.State = comp.state
		}
	}
	sort.Slice(st.Components, func(i, j int) bool { return st.Components[i].Name < st.Components[j].Name })
	for _, run := range e.runs {
		expr := ""
		if run.rule.Expr != nil {
			expr = run.rule.Expr.String()
		} else if b := run.rule.Burn; b != nil {
			expr = b.Bad.String() + " / " + b.Total.String()
		}
		st.Rules = append(st.Rules, RuleStatus{
			Name:      run.rule.Name,
			Component: run.rule.Component,
			Severity:  run.rule.Severity.String(),
			State:     run.state,
			Since:     run.since,
			Value:     run.value,
			Expr:      expr,
		})
	}
	st.Transitions = append(st.Transitions, e.transitions...)
	return st
}

// Transitions returns a copy of the in-memory transition log.
func (e *Engine) Transitions() []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Transition, len(e.transitions))
	copy(out, e.transitions)
	return out
}

// The engine's own families, declared into the same obs table as every
// other series so rules can be written over them too.
var (
	alertsFamily     = obs.Declare(obs.KindGauge, "ALERTS", "Firing health rules (Prometheus alerting convention).")
	componentState   = obs.Declare(obs.KindGauge, "gsalert_health_component_state", "Component health (0 healthy, 1 degraded, 2 critical).")
	transitionsTotal = obs.Declare(obs.KindCounter, "gsalert_health_transitions_total", "Component state transitions observed.")
	rulesFiring      = obs.Declare(obs.KindGauge, "gsalert_health_rules_firing", "Health rules currently firing.")
	evalsTotal       = obs.Declare(obs.KindCounter, "gsalert_health_evals_total", "Rule-set evaluation ticks.")
)

// Register exposes the engine on a registry: the Prometheus-convention
// ALERTS{alertname,severity,component} series (value 1 per firing rule),
// per-component state gauges and the engine's own counters. Costs nothing
// until scraped; scrapes read under the engine lock.
func (e *Engine) Register(r *obs.Registry) {
	r.Collect(func(c *obs.Collector) {
		e.mu.Lock()
		defer e.mu.Unlock()
		firing := 0
		for _, run := range e.runs {
			if run.state != RuleFiring {
				continue
			}
			firing++
			c.Emit(alertsFamily, 1,
				obs.L("alertname", run.rule.Name),
				obs.L("severity", run.rule.Severity.String()),
				obs.L("component", run.rule.Component))
		}
		for name, comp := range e.components {
			c.Emit(componentState, float64(comp.state), obs.L("component", name))
		}
		for name, n := range e.transitionCount {
			c.Emit(transitionsTotal, float64(n), obs.L("component", name))
		}
		c.Emit(rulesFiring, float64(firing))
		c.Emit(evalsTotal, float64(e.evals))
	})
}

// AddReadiness registers a named readiness check; /readyz reports 200 only
// when every check returns nil.
func (e *Engine) AddReadiness(name string, check func() error) {
	e.readyMu.Lock()
	defer e.readyMu.Unlock()
	e.ready = append(e.ready, readinessCheck{name, check})
}

// ReadinessResult is one check's outcome.
type ReadinessResult struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"error,omitempty"`
}

// Readiness runs all checks and reports per-check outcomes plus the
// aggregate.
func (e *Engine) Readiness() (bool, []ReadinessResult) {
	e.readyMu.Lock()
	checks := make([]readinessCheck, len(e.ready))
	copy(checks, e.ready)
	e.readyMu.Unlock()
	ok := true
	results := make([]ReadinessResult, 0, len(checks))
	for _, c := range checks {
		r := ReadinessResult{Name: c.name, OK: true}
		if err := c.check(); err != nil {
			r.OK = false
			r.Err = err.Error()
			ok = false
		}
		results = append(results, r)
	}
	return ok, results
}
