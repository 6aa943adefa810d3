package event

import (
	"sync"
	"sync/atomic"
)

// Dedup is a bounded, thread-safe set of recently seen message or event IDs.
// The GDS tree is acyclic by construction, but merged directories, retries
// and GS-network forwarding can all re-present a message, so every consumer
// of flooded traffic deduplicates (paper §1 problem 2: "possible infinite
// loops and duplicates of event messages").
//
// Eviction is FIFO over a fixed capacity, which matches the traffic pattern:
// duplicates arrive close together in time. The window is a ring of the IDs
// themselves beside a set: a full window holds one heap object per ID (the
// string the caller already had), so the garbage collector's marking work
// does not grow threefold while the window fills under sustained traffic.
type Dedup struct {
	mu   sync.Mutex
	seen map[string]struct{}
	ring []string // len == capacity; the window is ring[head], ring[head+1], … (mod len), n entries
	head int
	n    int
	// hits is atomic so monitoring paths read it without contending on mu
	// against the hot Observe path.
	hits atomic.Int64
}

// DefaultDedupCapacity bounds the window of remembered IDs.
const DefaultDedupCapacity = 8192

// NewDedup builds a deduplicator holding at most capacity IDs; non-positive
// capacities fall back to DefaultDedupCapacity.
func NewDedup(capacity int) *Dedup {
	if capacity <= 0 {
		capacity = DefaultDedupCapacity
	}
	return &Dedup{
		seen: make(map[string]struct{}, capacity),
		ring: make([]string, capacity),
	}
}

// Observe records id and reports whether it was already present (true means
// duplicate: the caller should suppress the message).
func (d *Dedup) Observe(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.seen[id]; dup {
		d.hits.Add(1)
		return true
	}
	if d.n == len(d.ring) {
		// Full: the oldest entry's slot is the one the newest takes.
		delete(d.seen, d.ring[d.head])
		d.ring[d.head] = id
		d.head = (d.head + 1) % len(d.ring)
	} else {
		d.ring[(d.head+d.n)%len(d.ring)] = id
		d.n++
	}
	d.seen[id] = struct{}{}
	return false
}

// IDs returns every remembered ID in admission (FIFO) order. Replication
// snapshots use it to ship the window to a standby, which replays the list
// through Observe to reproduce the same eviction order.
func (d *Dedup) IDs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, d.n)
	for i := 0; i < d.n; i++ {
		out = append(out, d.ring[(d.head+i)%len(d.ring)])
	}
	return out
}

// Len reports the number of remembered IDs.
func (d *Dedup) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Hits reports how many duplicates have been suppressed. It reads the
// counter atomically, without taking the mutex.
func (d *Dedup) Hits() int64 {
	return d.hits.Load()
}

// Reset forgets everything.
func (d *Dedup) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seen = make(map[string]struct{}, len(d.ring))
	clear(d.ring)
	d.head, d.n = 0, 0
	d.hits.Store(0)
}
