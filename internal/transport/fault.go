package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/protocol"
)

// ErrInjected marks a send refused by a FaultInjector rule, distinguishable
// from the Memory transport's own fault vocabulary (partitions, down nodes)
// so tests can assert which layer killed a message.
var ErrInjected = errors.New("transport: injected fault")

// FaultRule scopes an injected fault to a slice of the traffic. A rule
// matches a send when every non-wildcard field matches: From against the
// envelope's logical sender name, To against the destination address, and
// TypePrefix as a prefix of the message type (e.g. "repl." hits the whole
// replication protocol, "" hits everything). Matching rules compose: drop
// probabilities are evaluated per rule in order (first hit wins) and extra
// latencies accumulate.
type FaultRule struct {
	// From matches the envelope's logical sender name; "" or "*" matches any.
	From string
	// To matches the destination address; "" or "*" matches any.
	To string
	// TypePrefix matches a prefix of the message type; "" matches any.
	TypePrefix string
	// DropRate is the probability (0..1] that a matching send fails with
	// ErrInjected. 1.0 severs the matched traffic deterministically.
	DropRate float64
	// ExtraLatency is added to the envelope's virtual latency accounting
	// (the Memory transport convention: accounted, never slept).
	ExtraLatency time.Duration
}

func (r FaultRule) matches(from, to string, typ protocol.MessageType) bool {
	if r.From != "" && r.From != "*" && r.From != from {
		return false
	}
	if r.To != "" && r.To != "*" && r.To != to {
		return false
	}
	if r.TypePrefix != "" && !hasPrefix(string(typ), r.TypePrefix) {
		return false
	}
	return true
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// String renders a rule for logs and schedule listings.
func (r FaultRule) String() string {
	from, to := r.From, r.To
	if from == "" {
		from = "*"
	}
	if to == "" {
		to = "*"
	}
	s := fmt.Sprintf("%s->%s", from, to)
	if r.TypePrefix != "" {
		s += " type=" + r.TypePrefix
	}
	if r.DropRate > 0 {
		s += fmt.Sprintf(" drop=%g", r.DropRate)
	}
	if r.ExtraLatency > 0 {
		s += " latency=" + r.ExtraLatency.String()
	}
	return s
}

// FaultInjectorStats counts the injector's interventions.
type FaultInjectorStats struct {
	// Dropped counts sends refused with ErrInjected.
	Dropped int64
	// Delayed counts sends forwarded with extra virtual latency.
	Delayed int64
}

// FaultInjector decorates a Transport with a mutable rule set for chaos
// experiments: scheduled link degradation (extra virtual latency) and
// deterministic or probabilistic message loss, scoped by sender, destination
// and message-type prefix. With no rules installed it is a passthrough, so a
// cluster can be built over an injector unconditionally and pay nothing
// until a schedule arms it. The random source is seeded, keeping chaos runs
// reproducible; Listen and Close delegate to the wrapped transport.
type FaultInjector struct {
	inner Transport

	mu    sync.RWMutex
	rules []FaultRule

	rngMu sync.Mutex
	rng   *rand.Rand

	dropped atomic.Int64
	delayed atomic.Int64
}

var _ Transport = (*FaultInjector)(nil)

// NewFaultInjector wraps inner with an empty rule set.
func NewFaultInjector(inner Transport, seed int64) *FaultInjector {
	return &FaultInjector{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// SetRules replaces the active rule set.
func (f *FaultInjector) SetRules(rules ...FaultRule) {
	f.mu.Lock()
	f.rules = append([]FaultRule(nil), rules...)
	f.mu.Unlock()
}

// AddRule appends a rule to the active set.
func (f *FaultInjector) AddRule(r FaultRule) {
	f.mu.Lock()
	f.rules = append(f.rules, r)
	f.mu.Unlock()
}

// ClearRules disarms the injector.
func (f *FaultInjector) ClearRules() {
	f.mu.Lock()
	f.rules = nil
	f.mu.Unlock()
}

// RemoveRules drops every rule for which pred returns true, returning the
// number removed (a schedule healing one link leaves others degraded).
func (f *FaultInjector) RemoveRules(pred func(FaultRule) bool) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.rules[:0]
	removed := 0
	for _, r := range f.rules {
		if pred(r) {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	f.rules = kept
	return removed
}

// Stats snapshots the intervention counters.
func (f *FaultInjector) Stats() FaultInjectorStats {
	return FaultInjectorStats{Dropped: f.dropped.Load(), Delayed: f.delayed.Load()}
}

// Listen delegates to the wrapped transport (faults apply to sends only;
// inbound handling is the receiver's business).
func (f *FaultInjector) Listen(addr string, h Handler) (io.Closer, error) {
	return f.inner.Listen(addr, h)
}

// Send applies the matching rules, then delegates. A drop returns
// ErrInjected without touching the wrapped transport; extra latency is
// accounted on a clone of the envelope (Send contracts forbid retaining or
// mutating the caller's envelope).
func (f *FaultInjector) Send(ctx context.Context, addr string, env *protocol.Envelope) (*protocol.Envelope, error) {
	f.mu.RLock()
	rules := f.rules
	f.mu.RUnlock()
	if len(rules) == 0 {
		return f.inner.Send(ctx, addr, env)
	}
	from := env.Header.From
	var extra time.Duration
	for _, r := range rules {
		if !r.matches(from, addr, env.Header.Type) {
			continue
		}
		if r.DropRate > 0 {
			f.rngMu.Lock()
			roll := f.rng.Float64()
			f.rngMu.Unlock()
			if roll < r.DropRate {
				f.dropped.Add(1)
				return nil, fmt.Errorf("%w: %s -> %s (%s)", ErrInjected, from, addr, env.Header.Type)
			}
		}
		extra += r.ExtraLatency
	}
	if extra > 0 {
		env = env.Clone()
		env.Header.VirtualLatencyMicros += int64(extra / time.Microsecond)
		f.delayed.Add(1)
	}
	return f.inner.Send(ctx, addr, env)
}

// Close delegates to the wrapped transport.
func (f *FaultInjector) Close() error { return f.inner.Close() }
