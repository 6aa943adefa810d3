package transport

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/protocol"
)

// Memory is a deterministic in-process network. Delivery is synchronous in
// the caller's goroutine; "latency" is accounted virtually on the envelope
// header (a fixed hopLatency per traversal) instead of by sleeping, so large
// simulations run in microseconds and every run is identical.
//
// Topology faults live here: links can be partitioned pairwise and whole
// nodes taken down. Message loss and extra latency are FaultInjector's job
// (wrap the Memory in one) — there is one lossy link, not two.
//
// Handlers are invoked synchronously, therefore handler code must never
// hold a lock across a Send on the same transport (the echo of the usual
// distributed-systems rule that a server must not block its event loop on
// its own RPCs).
type Memory struct {
	mu        sync.RWMutex
	handlers  map[string]Handler
	downNodes map[string]bool
	cuts      map[linkKey]bool
	closed    bool
	stats     MemoryStats
}

// hopLatency is the virtual latency accounted per link traversal.
const hopLatency = time.Millisecond

type linkKey struct{ a, b string }

func newLinkKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a: a, b: b}
}

// MemoryStats counts traffic through a Memory transport.
type MemoryStats struct {
	// Sent counts Send calls that passed fault checks and were delivered.
	Sent int64
	// Blocked counts messages refused by partitions or down nodes.
	Blocked int64
	// Bytes approximates payload volume (body bytes per delivery).
	Bytes int64
	// PerType counts deliveries by message type.
	PerType map[protocol.MessageType]int64
}

// NewMemory builds an empty simulated network.
func NewMemory() *Memory {
	return &Memory{
		handlers:  make(map[string]Handler),
		downNodes: make(map[string]bool),
		cuts:      make(map[linkKey]bool),
		stats:     MemoryStats{PerType: make(map[protocol.MessageType]int64)},
	}
}

var _ Transport = (*Memory)(nil)

type memoryListener struct {
	m    *Memory
	addr string
}

// Close unbinds the listener's address.
func (l *memoryListener) Close() error {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	if _, ok := l.m.handlers[l.addr]; !ok {
		return ErrNotBound
	}
	delete(l.m.handlers, l.addr)
	return nil
}

// Listen binds h to addr.
func (m *Memory) Listen(addr string, h Handler) (io.Closer, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %q", addr)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if _, ok := m.handlers[addr]; ok {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyBound, addr)
	}
	m.handlers[addr] = h
	return &memoryListener{m: m, addr: addr}, nil
}

// Send delivers env to addr synchronously, applying partitions, node
// down states and virtual latency accounting.
func (m *Memory) Send(ctx context.Context, addr string, env *protocol.Envelope) (*protocol.Envelope, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	from := env.Header.From

	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return nil, ErrClosed
	}
	h, ok := m.handlers[addr]
	down := m.downNodes[addr] || (from != "" && m.downNodes[from])
	cut := from != "" && m.cuts[newLinkKey(from, addr)]
	m.mu.RUnlock()

	if !ok {
		m.count(func(s *MemoryStats) { s.Blocked++ })
		return nil, fmt.Errorf("%w: %q", ErrUnreachable, addr)
	}
	if down {
		m.count(func(s *MemoryStats) { s.Blocked++ })
		return nil, fmt.Errorf("%w: node down on path %q -> %q", ErrUnreachable, from, addr)
	}
	if cut {
		m.count(func(s *MemoryStats) { s.Blocked++ })
		return nil, fmt.Errorf("%w: %q -> %q", ErrPartitioned, from, addr)
	}

	delivered := env.Clone()
	delivered.Header.VirtualLatencyMicros += hopLatency.Microseconds()
	typ := delivered.Header.Type
	size := int64(len(delivered.Body.Inner))
	m.count(func(s *MemoryStats) {
		s.Sent++
		s.Bytes += size
		s.PerType[typ]++
	})

	resp, err := h.Handle(ctx, delivered)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %w", ErrRemoteFailure, addr, err)
	}
	if resp != nil {
		// The response travels the same link back.
		resp = resp.Clone()
		resp.Header.VirtualLatencyMicros = delivered.Header.VirtualLatencyMicros + hopLatency.Microseconds()
	}
	return resp, nil
}

// Close shuts the network down; all subsequent operations fail.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.handlers = make(map[string]Handler)
	return nil
}

func (m *Memory) count(f func(*MemoryStats)) {
	m.mu.Lock()
	f(&m.stats)
	m.mu.Unlock()
}

// Stats returns a snapshot of traffic counters.
func (m *Memory) Stats() MemoryStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := m.stats
	out.PerType = make(map[protocol.MessageType]int64, len(m.stats.PerType))
	for k, v := range m.stats.PerType {
		out.PerType[k] = v
	}
	return out
}

// ResetStats zeroes the traffic counters (between experiment phases).
func (m *Memory) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = MemoryStats{PerType: make(map[protocol.MessageType]int64)}
}

// Partition cuts the bidirectional link between a and b.
func (m *Memory) Partition(a, b string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cuts[newLinkKey(a, b)] = true
}

// Heal restores the link between a and b.
func (m *Memory) Heal(a, b string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cuts, newLinkKey(a, b))
}

// SetNodeDown marks addr unreachable in both directions (crash model).
func (m *Memory) SetNodeDown(addr string, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if down {
		m.downNodes[addr] = true
	} else {
		delete(m.downNodes, addr)
	}
}
