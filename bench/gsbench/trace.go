package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/filter"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// The benchmark's own tracing: decorators at the program's public seams
// record spans into memory; the program's internal/trace stays off. A traced
// run builds the deployment with the decorators installed and switches them
// on for the traced phases only; end-to-end runs build it without them.

type layer string

const (
	layerTransport layer = "transport"
	layerGDS       layer = "gds"
	layerFilter    layer = "filter"
	layerDelivery  layer = "delivery"
	layerReplica   layer = "replica"
	layerCore      layer = "core"
)

// spanRec is one recorded span. ID is its index+1; Parent 0 marks a root.
type spanRec struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Layer  layer  `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	spanCapacity    = 1 << 19
	captureCapacity = 512
)

type tracer struct {
	on    atomic.Bool
	spans []spanRec
	n     atomic.Int64
	lost  atomic.Int64

	// cur maps a goroutine to its innermost open span, so seams without a
	// context (Matcher, sinks, sends issued with context.Background) still
	// find their parent.
	cur sync.Map // goroutine id -> *int32
	// pending links a handler span to the Send that caused it: envelope ID
	// plus destination address (relays keep the ID, so the address is needed).
	pending sync.Map // string -> int32
	names   sync.Map // "send:"/"handle:" + message type, cached

	capMu    sync.Mutex
	captured []*protocol.Envelope // replayed through the codec by the probes
	sendErrs atomic.Int64
}

func newTracer() *tracer { return &tracer{spans: make([]spanRec, spanCapacity)} }

// span is a handle on an open span; the zero value (tracing off) is inert.
type span struct {
	t    *tracer
	id   int32
	slot *int32
	prev int32
}

type spanKey struct{}

// goid parses the goroutine ID off the stack header. Only traced runs pay
// for it (about a microsecond per span).
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func (t *tracer) slot() *int32 {
	g := goid()
	if v, ok := t.cur.Load(g); ok {
		return v.(*int32)
	}
	v, _ := t.cur.LoadOrStore(g, new(int32))
	return v.(*int32)
}

// start opens a span under the goroutine's innermost open span, else under
// the span ctx carries, else as a root.
func (t *tracer) start(ctx context.Context, name string, l layer) span {
	if t == nil || !t.on.Load() {
		return span{}
	}
	slot := t.slot()
	parent := *slot
	if parent == 0 && ctx != nil {
		parent, _ = ctx.Value(spanKey{}).(int32)
	}
	return t.open(slot, parent, name, l)
}

// startUnder opens a span under an explicit parent (a handler under the
// Send that caused it).
func (t *tracer) startUnder(parent int32, name string, l layer) span {
	if t == nil || !t.on.Load() {
		return span{}
	}
	return t.open(t.slot(), parent, name, l)
}

func (t *tracer) open(slot *int32, parent int32, name string, l layer) span {
	i := t.n.Add(1)
	if int(i) > len(t.spans) {
		t.lost.Add(1)
		return span{}
	}
	t.spans[i-1] = spanRec{ID: int32(i), Parent: parent, Name: name, Layer: l, Start: time.Now().UnixNano()}
	sp := span{t: t, id: int32(i), slot: slot, prev: *slot}
	*slot = sp.id
	return sp
}

func (s span) end() {
	if s.t == nil {
		return
	}
	s.t.spans[s.id-1].End = time.Now().UnixNano()
	*s.slot = s.prev
}

func (s span) context(ctx context.Context) context.Context {
	if s.t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s.id)
}

func (t *tracer) recorded() []spanRec {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

func (t *tracer) name(prefix string, typ protocol.MessageType) string {
	key := prefix + string(typ)
	if v, ok := t.names.Load(key); ok {
		return v.(string)
	}
	t.names.Store(key, key)
	return key
}

func (t *tracer) capture(env *protocol.Envelope) {
	if env == nil {
		return
	}
	t.capMu.Lock()
	if len(t.captured) < captureCapacity {
		t.captured = append(t.captured, env.Clone())
	}
	t.capMu.Unlock()
}

// layerOf attributes a message type to the layer that handles it.
func layerOf(typ protocol.MessageType, sending bool) layer {
	s := string(typ)
	switch {
	case strings.HasPrefix(s, "repl."):
		return layerReplica
	case strings.HasPrefix(s, "gs.notify"):
		return layerDelivery
	case sending:
		return layerTransport
	case strings.HasPrefix(s, "gds."):
		return layerGDS
	default:
		return layerCore
	}
}

// tracedTransport decorates a transport.Transport: every Send is a span
// named by message type, every Handler passed to Listen is wrapped so the
// handling is a child span of the causing Send.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
}

var _ transport.Transport = (*tracedTransport)(nil)

func (tt *tracedTransport) Listen(addr string, h transport.Handler) (io.Closer, error) {
	return tt.inner.Listen(addr, transport.HandlerFunc(func(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		if !tt.t.on.Load() {
			return h.Handle(ctx, env)
		}
		var parent int32
		if v, ok := tt.t.pending.Load(env.Header.ID + "|" + addr); ok {
			parent = v.(int32)
		}
		typ := env.Header.Type
		sp := tt.t.startUnder(parent, tt.t.name("handle:", typ), layerOf(typ, false))
		resp, err := h.Handle(sp.context(ctx), env)
		sp.end()
		tt.t.capture(resp)
		return resp, err
	}))
}

func (tt *tracedTransport) Send(ctx context.Context, addr string, env *protocol.Envelope) (*protocol.Envelope, error) {
	if !tt.t.on.Load() {
		return tt.inner.Send(ctx, addr, env)
	}
	typ := env.Header.Type
	sp := tt.t.start(ctx, tt.t.name("send:", typ), layerOf(typ, true))
	key := env.Header.ID + "|" + addr
	tt.t.pending.Store(key, sp.id)
	tt.t.capture(env)
	resp, err := tt.inner.Send(ctx, addr, env)
	tt.t.pending.Delete(key)
	sp.end()
	if err != nil {
		tt.t.sendErrs.Add(1)
	}
	return resp, err
}

func (tt *tracedTransport) Close() error { return tt.inner.Close() }

// tracedMatcher decorates the filter.Matcher handed to core.Config.Matcher.
// It also stamps each event's match-end time for the dwell measurement.
type tracedMatcher struct {
	filter.Matcher
	t      *tracer
	rec    *recorder
	server int
}

func (m *tracedMatcher) Match(ev *event.Event) []filter.Match {
	sp := m.t.start(nil, "match", layerFilter)
	out := m.Matcher.Match(ev)
	sp.end()
	if ph := m.rec.phase.Load(); ph != nil && ph.matchEnd != nil {
		if seq, ok := parseID(ev.ID, 'e'); ok {
			if i := seq - ph.base; i >= 0 && i < len(ph.due) {
				atomic.StoreInt64(&ph.matchEnd[m.server][i], time.Now().UnixNano())
			}
		}
	}
	return out
}

func (m *tracedMatcher) Add(p *profile.Profile) error {
	sp := m.t.start(nil, "add", layerFilter)
	err := m.Matcher.Add(p)
	sp.end()
	return err
}

func (m *tracedMatcher) Remove(id string) bool {
	sp := m.t.start(nil, "remove", layerFilter)
	ok := m.Matcher.Remove(id)
	sp.end()
	return ok
}

// writeSpans dumps the recorded spans as JSON lines.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.recorded() {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
