// Package queue provides a retry/spool queue for server-to-server messages
// that must survive network partitions: auxiliary profile installs/cancels
// and forwarded events (paper §7: "as soon as the network connection is
// re-established, any deletion or update of the auxiliary profile ... can be
// performed"; "notifications ... would be delayed until the network
// connection is reestablished").
//
// The queue has two modes. In deterministic mode (the default) nothing
// happens until Flush is called — simulations call Flush after healing a
// partition, keeping experiments reproducible. Start launches a background
// flusher for live deployments; Stop waits for it to exit (no fire-and-
// forget goroutines).
package queue

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Item is one queued delivery.
type Item struct {
	// ID identifies the item; re-adding an ID replaces the older item
	// (a cancel superseding a queued install reuses the install's ID).
	ID string
	// Dest is the logical destination (server name), used for reporting.
	Dest string
	// Payload is opaque to the queue.
	Payload any

	attempts    int
	nextAttempt time.Time
	enqueuedAt  time.Time
	// seq is a monotonic admission number breaking enqueuedAt ties, so
	// flush order is FIFO even under a frozen deterministic clock (equal
	// timestamps would otherwise sort unstably).
	seq uint64
}

// Sender delivers one item; a nil return removes the item from the queue.
type Sender func(ctx context.Context, item *Item) error

// Queue retries failed deliveries with exponential backoff.
type Queue struct {
	sender  Sender
	baseOff time.Duration
	maxOff  time.Duration
	now     func() time.Time

	// flushMu serialises Flush: two flushes that snapshot the same items
	// (the background flusher and an explicit call) would each send them.
	flushMu sync.Mutex

	mu      sync.Mutex
	items   map[string]*Item
	nextSeq uint64

	stop chan struct{}
	done chan struct{}

	// counters
	succeeded int64
	failed    int64
	dropped   int64
}

// Option configures a Queue.
type Option func(*Queue)

// WithClock overrides the time source (deterministic tests).
func WithClock(now func() time.Time) Option {
	return func(q *Queue) { q.now = now }
}

// New builds a queue delivering through sender.
func New(sender Sender, opts ...Option) (*Queue, error) {
	if sender == nil {
		return nil, errors.New("queue: nil sender")
	}
	q := &Queue{
		sender:  sender,
		baseOff: 250 * time.Millisecond,
		maxOff:  30 * time.Second,
		now:     time.Now,
		items:   make(map[string]*Item),
	}
	for _, o := range opts {
		o(q)
	}
	return q, nil
}

// Add enqueues (or replaces) an item; it does not attempt delivery.
func (q *Queue) Add(id, dest string, payload any) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nextSeq++
	q.items[id] = &Item{
		ID:         id,
		Dest:       dest,
		Payload:    payload,
		enqueuedAt: q.now(),
		seq:        q.nextSeq,
		// immediately eligible
		nextAttempt: q.now(),
	}
}

// Remove drops an item (e.g. a queued install superseded by a cancel),
// reporting whether it was present.
func (q *Queue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.items[id]; !ok {
		return false
	}
	delete(q.items, id)
	q.dropped++
	return true
}

// Len reports queued items.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Stats reports cumulative delivery counters.
type Stats struct {
	Succeeded int64
	Failed    int64
	Dropped   int64
	Queued    int
}

// Stats returns a snapshot of the counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{Succeeded: q.succeeded, Failed: q.failed, Dropped: q.dropped, Queued: len(q.items)}
}

// Flush attempts delivery of every eligible item once, returning how many
// succeeded. Items whose backoff window has not elapsed are skipped unless
// force is set.
func (q *Queue) Flush(ctx context.Context, force bool) int {
	q.flushMu.Lock()
	defer q.flushMu.Unlock()
	now := q.now()
	q.mu.Lock()
	eligible := make([]*Item, 0, len(q.items))
	for _, it := range q.items {
		if force || !now.Before(it.nextAttempt) {
			eligible = append(eligible, it)
		}
	}
	// Deterministic order: oldest first, admission sequence breaking
	// timestamp ties (FIFO per destination follows: same-destination items
	// share the clock and are distinguished by seq).
	sort.Slice(eligible, func(i, j int) bool {
		if !eligible[i].enqueuedAt.Equal(eligible[j].enqueuedAt) {
			return eligible[i].enqueuedAt.Before(eligible[j].enqueuedAt)
		}
		return eligible[i].seq < eligible[j].seq
	})
	q.mu.Unlock()

	delivered := 0
	for _, it := range eligible {
		if ctx.Err() != nil {
			break
		}
		err := q.sender(ctx, it)
		q.mu.Lock()
		if _, still := q.items[it.ID]; !still {
			// Removed concurrently (superseded); ignore the outcome.
			q.mu.Unlock()
			continue
		}
		if err == nil {
			delete(q.items, it.ID)
			q.succeeded++
			delivered++
		} else {
			it.attempts++
			q.failed++
			backoff := q.baseOff << uint(minInt(it.attempts-1, 20))
			if backoff > q.maxOff || backoff <= 0 {
				backoff = q.maxOff
			}
			it.nextAttempt = q.now().Add(backoff)
		}
		q.mu.Unlock()
	}
	return delivered
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Start launches the background flusher with the given polling interval.
// It returns an error if already started. Stop shuts it down and waits.
func (q *Queue) Start(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("queue: non-positive interval %v", interval)
	}
	q.mu.Lock()
	if q.stop != nil {
		q.mu.Unlock()
		return errors.New("queue: already started")
	}
	q.stop = make(chan struct{})
	q.done = make(chan struct{})
	stop, done := q.stop, q.done
	q.mu.Unlock()

	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				q.Flush(ctx, false)
				cancel()
			}
		}
	}()
	return nil
}

// Stop halts the background flusher and waits for it to exit. It is safe to
// call when never started.
func (q *Queue) Stop() {
	q.mu.Lock()
	stop, done := q.stop, q.done
	q.stop, q.done = nil, nil
	q.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
