package trace

import (
	"encoding/hex"
	"math"
	"sync/atomic"
	"time"
)

// Config assembles a Tracer.
type Config struct {
	// Service names the process in recorded spans ("gs0", "gds3").
	Service string
	// SampleRate is the head-sampling probability in [0,1]: the fraction of
	// root traces recorded. 0 records nothing (except tail-retained slow
	// roots), 1 records everything.
	SampleRate float64
	// SlowRoot is the tail-retain threshold: a root span slower than this is
	// recorded even when head sampling passed it over, so latency outliers
	// always appear in the collector. <= 0 disables tail retention.
	SlowRoot time.Duration
	// Seed drives ID generation and the sampling hash; runs sharing a seed
	// produce identical IDs and identical sampling decisions. 0 derives a
	// seed from the wall clock (fine for servers, not for simulations).
	Seed int64
	// Collector receives finished spans. nil disables the tracer entirely.
	Collector *Collector
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
}

// Tracer starts spans and decides sampling. A nil *Tracer is a valid,
// disabled tracer: every method no-ops, so instrumentation sites call it
// unconditionally and the disabled publish path pays one nil check.
type Tracer struct {
	svc       string
	threshold uint64 // sampled when hash < threshold
	slow      time.Duration
	col       *Collector
	clock     func() time.Time
	seed      uint64
	ctr       atomic.Uint64
}

// New builds a tracer from cfg; it returns nil (the disabled tracer) when
// cfg.Collector is nil.
func New(cfg Config) *Tracer {
	if cfg.Collector == nil {
		return nil
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	var threshold uint64
	switch {
	case cfg.SampleRate >= 1:
		threshold = math.MaxUint64
	case cfg.SampleRate > 0:
		threshold = uint64(cfg.SampleRate * float64(math.MaxUint64))
	}
	return &Tracer{
		svc:       cfg.Service,
		threshold: threshold,
		slow:      cfg.SlowRoot,
		col:       cfg.Collector,
		clock:     clock,
		seed:      mix(seed),
	}
}

// Enabled reports whether the tracer records anything at all.
func (t *Tracer) Enabled() bool { return t != nil && t.col != nil }

// Collector returns the tracer's span sink (nil when disabled).
func (t *Tracer) Collector() *Collector {
	if t == nil {
		return nil
	}
	return t.col
}

func (t *Tracer) nextID() uint64 {
	for {
		if id := mix(t.seed ^ t.ctr.Add(1)); id != 0 {
			return id
		}
	}
}

// sampled is the deterministic head-sampling decision: a seeded hash of
// the trace ID against the rate threshold. Identical seed + trace ID ⇒
// identical decision, so replayed runs trace the same events.
func (t *Tracer) sampled(hi, lo uint64) bool {
	if t.threshold == 0 {
		return false
	}
	if t.threshold == math.MaxUint64 {
		return true
	}
	return mix(t.seed^hi^mix(lo)) < t.threshold
}

// StartRoot opens the root span of a new trace (stage StagePublish at the
// origin server). The root is always timed — even when head sampling says
// no — so the tail-retain rule can rescue slow outliers at Finish.
func (t *Tracer) StartRoot(name string) Span {
	if !t.Enabled() {
		return Span{}
	}
	// With head sampling off and no tail-retain threshold nothing derived
	// from this root can ever be recorded, and unsampled contexts stay off
	// the wire — so skip the ID generation and clock reads entirely. This
	// keeps a tracer installed with SampleRate 0 within noise of no tracer
	// at all (TestTraceDisabledOverhead pins it ≤ 2% of the publish path).
	if t.threshold == 0 && t.slow <= 0 {
		return Span{}
	}
	hi, lo := t.nextID(), t.nextID()
	ctx := Context{hi: hi, lo: lo, span: t.nextID(), sample: t.sampled(hi, lo)}
	return Span{
		t:      t,
		ctx:    ctx,
		name:   name,
		start:  t.clock(),
		record: ctx.sample,
		timed:  true,
		root:   true,
	}
}

// StartChild opens a span under parent. Unsampled or invalid parents cost
// nothing: the returned span is a no-op and its Context is the zero value.
func (t *Tracer) StartChild(parent Context, name string) Span {
	if !t.Enabled() || !parent.Sampled() {
		return Span{}
	}
	return Span{
		t:      t,
		ctx:    Context{hi: parent.hi, lo: parent.lo, span: t.nextID(), sample: true},
		parent: parent.span,
		name:   name,
		start:  t.clock(),
		record: true,
	}
}

// Record emits a completed span under parent in one call — for regions
// whose boundaries were measured elsewhere (per-item flush/notify spans
// share the batch's timestamps). It returns the recorded span's context so
// further children can chain under it; unsampled parents return the zero
// context and record nothing.
func (t *Tracer) Record(parent Context, name string, start time.Time, d time.Duration, class string, attrs ...Attr) Context {
	if !t.Enabled() || !parent.Sampled() {
		return Context{}
	}
	ctx := Context{hi: parent.hi, lo: parent.lo, span: t.nextID(), sample: true}
	t.col.add(&SpanRecord{
		TraceID:       ctx.TraceID(),
		SpanID:        ctx.SpanID(),
		ParentID:      Context{hi: parent.hi, lo: parent.lo, span: parent.span}.SpanID(),
		Name:          name,
		Service:       t.svc,
		Class:         class,
		StartUnixNano: start.UnixNano(),
		DurationNanos: int64(d),
		Attrs:         attrs,
	}, ctx.span)
	return ctx
}

// Span is one live instrumentation region. The zero value is a no-op span:
// every method returns immediately, so unsampled paths carry spans by
// value without branching at each call site.
type Span struct {
	t      *Tracer
	ctx    Context
	parent uint64
	name   string
	class  string
	start  time.Time
	attrs  []Attr
	record bool
	timed  bool
	root   bool
}

// Attr is one key/value stage attribute on a recorded span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Context returns the span's trace context for propagation (zero when the
// span is a no-op).
func (s Span) Context() Context { return s.ctx }

// SetClass tags the span with a QoS class name (a first-class field so
// /traces and the attribution table can filter without scanning attrs).
func (s *Span) SetClass(class string) {
	if s.record {
		s.class = class
	}
}

// SetAttr attaches one stage attribute (outcome=defer, hops=3, ...).
func (s *Span) SetAttr(k, v string) {
	if s.record {
		s.attrs = append(s.attrs, Attr{Key: k, Value: v})
	}
}

// Finish closes the span and hands it to the collector. Durations come
// from the monotonic clock carried inside time.Time, so a wall-clock step
// never produces a negative or inflated span. A timed-but-unsampled root
// is emitted only when it breaches the tail-retain threshold.
func (s *Span) Finish() {
	if s.t == nil || (!s.record && !s.timed) {
		return
	}
	d := s.t.clock().Sub(s.start)
	if d < 0 {
		d = 0
	}
	retained := false
	if !s.record {
		// Tail retention: only roots are timed without recording.
		if s.t.slow <= 0 || d < s.t.slow {
			return
		}
		retained = true
	}
	s.t.col.add(&SpanRecord{
		TraceID:       s.ctx.TraceID(),
		SpanID:        s.ctx.SpanID(),
		ParentID:      parentID(s.parent),
		Name:          s.name,
		Service:       s.t.svc,
		Class:         s.class,
		StartUnixNano: s.start.UnixNano(),
		DurationNanos: int64(d),
		Attrs:         s.attrs,
		Retained:      retained,
	}, s.ctx.span)
	s.record = false
	s.timed = false
}

func parentID(span uint64) string {
	if span == 0 {
		return ""
	}
	var b [8]byte
	putUint64(b[:], span)
	return hex.EncodeToString(b[:])
}
