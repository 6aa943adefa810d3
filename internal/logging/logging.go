// Package logging is the zero-dependency structured logging subsystem of
// the alerting service — the third observability pillar next to the metric
// registry (internal/obs) and the span collector (internal/trace).
//
// Loggers are leveled and component-scoped: a subsystem holds one
// *Logger obtained from Recorder.For("delivery") and emits key/value
// records that carry the active trace.Context's trace ID when one is in
// scope, so a log line, a histogram exemplar and a span tree all pivot on
// the same ID.
//
// Every record at or above the recorder's level is written into an
// always-on in-memory flight recorder: a lock-free sharded drop-oldest
// ring per component (metrics.Ring, shared with trace.Collector) that
// retains the last N records at one atomic swap per record — cheap
// enough to leave on in production even with all sinks off. Sinks
// (stderr, files) are optional and token-bucket rate limited per
// component, so a hot path can log errors during an incident without
// melting the process; suppressed sink writes still land in the ring.
//
// A nil *Logger (and a nil *Recorder) is valid and disabled: every
// method no-ops behind one pointer check, so instrumentation sites call
// it unconditionally and an unwired subsystem pays almost nothing —
// TestLogDisabledOverhead pins the publish-path cost at <= 2%.
//
// FlightRecorder (flight.go) snapshots the rings — plus the current
// /stats payload and the IDs of retained traces — into a deterministic
// JSONL post-mortem bundle when the health plane turns critical, on
// demand via GET /debug/flightrecorder, or from `gs-client logs`. See
// docs/LOGGING.md.
package logging

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/trace"
)

// Level orders record severities. The zero value is LevelInfo so an
// unconfigured Recorder keeps info and above.
type Level int32

const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
	// LevelDebug sorts below info: debug records are suppressed unless a
	// component (or the recorder) opts in.
	LevelDebug Level = -1
	// levelOff disables a component entirely (per-component override "off").
	levelOff Level = 100
)

// String names the level ("debug", "info", "warn", "error").
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case levelOff:
		return "off"
	default:
		return fmt.Sprintf("level-%d", int32(l))
	}
}

// ParseLevel maps a flag value ("debug", "info", "warn", "error", "off")
// to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off":
		return levelOff, nil
	default:
		return 0, fmt.Errorf("logging: unknown level %q (want debug, info, warn, error or off)", s)
	}
}

// Attr is one key/value attribute on a record. Values are strings, like
// trace.Attr: call sites format once, the ring stores no interfaces.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: fmt.Sprint(v)} }

// Record is one structured log record as stored in the ring and rendered
// into flight-recorder bundles.
type Record struct {
	// Seq is the per-component sequence number (1-based, gap-free per
	// component); bundles sort on (component, seq) so dumps are stable.
	Seq          uint64 `json:"seq"`
	TimeUnixNano int64  `json:"ts_unix_nano"`
	Level        string `json:"level"`
	Component    string `json:"component"`
	Msg          string `json:"msg"`
	// TraceID correlates the record with a span tree in the trace
	// collector (empty when no sampled trace was in scope).
	TraceID string `json:"trace_id,omitempty"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Config assembles a Recorder. The zero value is usable: info level,
// DefaultRingSize records per component, no sink.
type Config struct {
	// Level is the minimum level kept (ring and sink).
	Level Level
	// RingSize is the per-component flight-recorder ring capacity
	// (rounded up to a multiple of the shard count). Default 256.
	RingSize int
	// Sink, when set, additionally receives one rendered line per record
	// (logfmt-shaped: ts, level, component, msg, trace_id, attrs). The
	// ring is written regardless.
	Sink io.Writer
	// RateLimit caps sink writes per component in records/second (token
	// bucket; the ring is exempt). 0 disables limiting. Suppressed
	// records are counted and still ring-retained.
	RateLimit float64
	// RateBurst is the bucket depth; default 2×RateLimit (min 1).
	RateBurst int
	// Clock overrides time.Now for deterministic simulations; it stamps
	// records and the capture time of every FlightRecorder bundle.
	Clock func() time.Time
}

// DefaultRingSize is the per-component ring capacity when Config.RingSize
// is zero: enough for the last few minutes of warn/error flow on a busy
// component without holding more than a few hundred KB across a process.
const DefaultRingSize = 256

// Recorder owns the per-component rings and the sink. One Recorder serves
// a whole process; components are created on first use and never removed.
type Recorder struct {
	cfg   Config
	clock func() time.Time

	mu    sync.RWMutex
	comps map[string]*component

	// sinkMu serialises sink writes (the rendered line must not interleave).
	sinkMu sync.Mutex

	emitted    atomic.Int64
	dropped    atomic.Int64
	suppressed atomic.Int64
}

// component is one scoped stream: its ring and rate limiter.
type component struct {
	name string
	ring metrics.Ring[Record]
	seq  atomic.Uint64

	emitted    atomic.Int64
	dropped    atomic.Int64
	suppressed atomic.Int64

	// tok is the sink token bucket; only touched on the (already I/O
	// bound) sink path.
	tokMu     sync.Mutex
	tokens    float64
	tokenLast time.Time
}

// NewRecorder builds a recorder from cfg.
func NewRecorder(cfg Config) *Recorder {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.RateLimit > 0 && cfg.RateBurst <= 0 {
		cfg.RateBurst = int(2 * cfg.RateLimit)
		if cfg.RateBurst < 1 {
			cfg.RateBurst = 1
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Recorder{
		cfg:   cfg,
		clock: clock,
		comps: make(map[string]*component),
	}
}

// For returns the component-scoped logger, creating the component on
// first use. A nil recorder returns a nil (disabled) logger.
func (r *Recorder) For(name string) *Logger {
	if r == nil {
		return nil
	}
	return &Logger{r: r, c: r.component(name)}
}

func (r *Recorder) component(name string) *component {
	r.mu.RLock()
	c := r.comps[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.comps[name]; c != nil {
		return c
	}
	c = &component{name: name, tokens: float64(r.cfg.RateBurst), tokenLast: r.clock()}
	c.ring.Init(r.cfg.RingSize)
	r.comps[name] = c
	return c
}

// Components returns the known component names, sorted.
func (r *Recorder) Components() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]string, 0, len(r.comps))
	for name := range r.comps {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ComponentStats is one component's self-monitoring snapshot, surfaced as
// the gsalert_logging_* series by obs.RegisterLogging.
type ComponentStats struct {
	Component  string
	Emitted    int64
	Dropped    int64
	Suppressed int64
	Occupancy  int64
	Capacity   int
}

// Stats snapshots every component's counters, sorted by component name.
func (r *Recorder) Stats() []ComponentStats {
	if r == nil {
		return nil
	}
	names := r.Components()
	out := make([]ComponentStats, 0, len(names))
	r.mu.RLock()
	for _, name := range names {
		c := r.comps[name]
		out = append(out, ComponentStats{
			Component:  name,
			Emitted:    c.emitted.Load(),
			Dropped:    c.dropped.Load(),
			Suppressed: c.suppressed.Load(),
			Occupancy:  c.ring.Occupancy(),
			Capacity:   c.ring.Capacity(),
		})
	}
	r.mu.RUnlock()
	return out
}

// Emitted reports records accepted (ring-written) across all components.
func (r *Recorder) Emitted() int64 { return r.emitted.Load() }

// Snapshot copies out every retained record, sorted by (component, seq) —
// the deterministic order flight-recorder bundles are written in.
func (r *Recorder) Snapshot() []*Record {
	if r == nil {
		return nil
	}
	names := r.Components()
	var out []*Record
	r.mu.RLock()
	for _, name := range names {
		out = append(out, r.comps[name].ring.Snapshot()...)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Logger is one component's logging handle. A nil *Logger is valid and
// disabled: every method returns after one pointer check, so call sites
// never branch.
type Logger struct {
	r *Recorder
	c *component
}

// Recorder returns the logger's owning recorder (nil for a nil logger),
// letting a subsystem handed one scoped logger derive siblings for the
// components it builds internally.
func (l *Logger) Recorder() *Recorder {
	if l == nil {
		return nil
	}
	return l.r
}

// Debug emits a debug record with no trace context.
func (l *Logger) Debug(msg string, attrs ...Attr) { l.log(LevelDebug, trace.Context{}, msg, attrs) }

// Info emits an info record with no trace context.
func (l *Logger) Info(msg string, attrs ...Attr) { l.log(LevelInfo, trace.Context{}, msg, attrs) }

// Warn emits a warning record with no trace context.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.log(LevelWarn, trace.Context{}, msg, attrs) }

// Error emits an error record with no trace context.
func (l *Logger) Error(msg string, attrs ...Attr) { l.log(LevelError, trace.Context{}, msg, attrs) }

// DebugCtx and WarnCtx stamp the record with ctx's trace ID when ctx is a
// valid (sampled or not) trace context, tying the log line to the span tree
// the trace collector assembles.
func (l *Logger) DebugCtx(ctx trace.Context, msg string, attrs ...Attr) {
	l.log(LevelDebug, ctx, msg, attrs)
}

// WarnCtx emits a warning record correlated with ctx.
func (l *Logger) WarnCtx(ctx trace.Context, msg string, attrs ...Attr) {
	l.log(LevelWarn, ctx, msg, attrs)
}

func (l *Logger) log(lvl Level, ctx trace.Context, msg string, attrs []Attr) {
	if l == nil || lvl < l.r.cfg.Level {
		return
	}
	rec := &Record{
		Seq:          l.c.seq.Add(1),
		TimeUnixNano: l.r.clock().UnixNano(),
		Level:        lvl.String(),
		Component:    l.c.name,
		Msg:          msg,
		TraceID:      ctx.TraceID(),
		Attrs:        attrs,
	}
	if l.c.ring.Add(rec, rec.Seq) {
		l.c.dropped.Add(1)
		l.r.dropped.Add(1)
	}
	l.c.emitted.Add(1)
	l.r.emitted.Add(1)
	if l.r.cfg.Sink != nil {
		l.sink(rec)
	}
}

// sink rate-limits and writes one rendered line. Slow path by design.
func (l *Logger) sink(rec *Record) {
	if lim := l.r.cfg.RateLimit; lim > 0 {
		now := l.r.clock()
		l.c.tokMu.Lock()
		l.c.tokens += now.Sub(l.c.tokenLast).Seconds() * lim
		l.c.tokenLast = now
		if max := float64(l.r.cfg.RateBurst); l.c.tokens > max {
			l.c.tokens = max
		}
		ok := l.c.tokens >= 1
		if ok {
			l.c.tokens--
		}
		l.c.tokMu.Unlock()
		if !ok {
			l.c.suppressed.Add(1)
			l.r.suppressed.Add(1)
			return
		}
	}
	l.r.sinkMu.Lock()
	_, _ = io.WriteString(l.r.cfg.Sink, renderLine(rec))
	l.r.sinkMu.Unlock()
}

// renderLine formats one record as a logfmt-shaped line.
func renderLine(rec *Record) string {
	t := time.Unix(0, rec.TimeUnixNano).UTC().Format(time.RFC3339Nano)
	s := fmt.Sprintf("ts=%s level=%s component=%s msg=%q", t, rec.Level, rec.Component, rec.Msg)
	if rec.TraceID != "" {
		s += " trace_id=" + rec.TraceID
	}
	for _, a := range rec.Attrs {
		s += fmt.Sprintf(" %s=%q", a.Key, a.Value)
	}
	return s + "\n"
}
