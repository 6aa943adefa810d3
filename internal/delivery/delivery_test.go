package delivery

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/event"
)

func testNotification(client string, i int) Notification {
	ev := event.New(fmt.Sprintf("ev-%s-%d", client, i), event.TypeCollectionRebuilt,
		event.QName{Host: "Hamilton", Collection: "D"}, i,
		[]event.DocRef{{ID: fmt.Sprintf("d%d", i)}}, time.Unix(1117584000, 0))
	return Notification{
		Client:    client,
		ProfileID: fmt.Sprintf("p-%s", client),
		Event:     ev,
		DocIDs:    []string{fmt.Sprintf("d%d", i)},
		At:        time.Unix(1117584000, 0),
	}
}

// recordingSink is a thread-safe Deliverer capturing batches.
type recordingSink struct {
	mu      sync.Mutex
	got     []Notification
	batches int
	fail    atomic.Bool
}

func (r *recordingSink) deliver(_ string, batch []Notification) error {
	if r.fail.Load() {
		return errors.New("sink unavailable")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, batch...)
	r.batches++
	return nil
}

func (r *recordingSink) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

func (r *recordingSink) batchCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.batches
}

func drain(t *testing.T, p *Pipeline) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestEnqueueDeliverRoundTrip(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 2, QueueDepth: 16, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sink := &recordingSink{}
	p.Attach("alice", sink.deliver)
	for i := 0; i < 10; i++ {
		if err := p.Enqueue(testNotification("alice", i)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	if sink.len() != 10 {
		t.Fatalf("delivered = %d, want 10", sink.len())
	}
	// Per-client FIFO ordering survives sharding (one client = one shard).
	sink.mu.Lock()
	for i, n := range sink.got {
		if n.DocIDs[0] != fmt.Sprintf("d%d", i) {
			t.Errorf("out of order at %d: %v", i, n.DocIDs)
		}
	}
	sink.mu.Unlock()
	if got := p.Metrics().Snapshot(); got.Delivered != 10 || got.Enqueued != 10 {
		t.Errorf("metrics = %+v", got)
	}
	if p.Pending("alice") != 0 {
		t.Errorf("pending = %d after delivery", p.Pending("alice"))
	}
}

func TestOfflineParkThenAttachDrains(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 8, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 5; i++ {
		if err := p.Enqueue(testNotification("bob", i)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	if got := p.Pending("bob"); got != 5 {
		t.Fatalf("parked = %d, want 5", got)
	}
	if s := p.Metrics().Snapshot(); s.Parked != 5 || s.Delivered != 0 {
		t.Fatalf("metrics = %+v", s)
	}
	// Reconnect: attach drains the mailbox in order.
	sink := &recordingSink{}
	p.Attach("bob", sink.deliver)
	drain(t, p)
	if sink.len() != 5 {
		t.Fatalf("drained = %d, want 5", sink.len())
	}
	if got := p.Pending("bob"); got != 0 {
		t.Errorf("parked after drain = %d", got)
	}
}

func TestFailedDeliveryParksForRetry(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 8, BatchSize: 8, RetryInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sink := &recordingSink{}
	sink.fail.Store(true)
	p.Attach("carol", sink.deliver)
	for i := 0; i < 3; i++ {
		if err := p.Enqueue(testNotification("carol", i)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	if got := p.Pending("carol"); got != 3 {
		t.Fatalf("parked after failure = %d, want 3", got)
	}
	if s := p.Metrics().Snapshot(); s.Retried != 3 {
		t.Fatalf("retried = %d", s.Retried)
	}
	// The sink heals WITHOUT re-attaching: the retry loop must redeliver
	// on its own — a transient transport error is not a disconnect.
	sink.fail.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for sink.len() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.len() != 3 {
		t.Fatalf("auto-redelivered = %d, want 3 (retry loop inactive)", sink.len())
	}
	if got := p.Pending("carol"); got != 0 {
		t.Errorf("pending after auto-retry = %d", got)
	}
}

// A batch queued behind a failed batch of the same client parks with it,
// even when the sink recovers in between, so the client still receives its
// notifications in order once the mailbox is resent.
func TestBatchBehindFailedBatchWaits(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, BatchSize: 4, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sink := &recordingSink{}
	var calls atomic.Int32
	p.Attach("carol", func(client string, batch []Notification) error {
		if calls.Add(1) == 1 {
			return errors.New("sink unavailable") // the link heals after one batch
		}
		return sink.deliver(client, batch)
	})
	var want []string
	for i := 0; i < 10; i++ {
		n := testNotification("carol", i)
		want = append(want, n.Event.ID)
		if err := p.Enqueue(n); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	if sink.len() != 0 {
		t.Fatalf("%d notifications behind the failed batch were delivered ahead of it", sink.len())
	}
	if got := p.Pending("carol"); got != 10 {
		t.Fatalf("parked = %d, want 10", got)
	}
	p.Attach("carol", sink.deliver)
	drain(t, p)
	var got []string
	for _, n := range sink.got {
		got = append(got, n.Event.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
}

func TestBatchFlushOnSize(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 64, BatchSize: 4, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sink := &recordingSink{}
	p.Attach("dave", sink.deliver)
	// Exactly one full batch: flushes without any ticker help.
	for i := 0; i < 4; i++ {
		if err := p.Enqueue(testNotification("dave", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.len() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.len() != 4 {
		t.Fatalf("size-triggered flush delivered %d, want 4", sink.len())
	}
	if sink.batchCount() != 1 {
		t.Errorf("batches = %d, want 1", sink.batchCount())
	}
}

func TestBatchFlushOnInterval(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 64, BatchSize: 1000, FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sink := &recordingSink{}
	p.Attach("erin", sink.deliver)
	// Far below the size trigger: only the interval can flush these.
	for i := 0; i < 3; i++ {
		if err := p.Enqueue(testNotification("erin", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.len() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.len() != 3 {
		t.Fatalf("interval-triggered flush delivered %d, want 3", sink.len())
	}
}

func TestOverflowBlockBackpressure(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 2, BatchSize: 1000, FlushInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sink := &recordingSink{}
	p.Attach("frank", sink.deliver)
	// With depth 2 the producer must be throttled, yet every notification
	// eventually lands: blocking means no loss.
	for i := 0; i < 50; i++ {
		if err := p.Enqueue(testNotification("frank", i)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	if sink.len() != 50 {
		t.Fatalf("delivered = %d, want 50", sink.len())
	}
	if s := p.Metrics().Snapshot(); s.Dropped != 0 {
		t.Errorf("backpressure dropped: %+v", s)
	}
}

func TestMailboxCapEvictsOldest(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 64, MailboxCap: 3, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 8; i++ {
		if err := p.Enqueue(testNotification("ivan", i)); err != nil {
			t.Fatal(err)
		}
		drain(t, p) // park each before the next arrives
	}
	if got := p.Pending("ivan"); got != 3 {
		t.Fatalf("parked = %d, want cap 3", got)
	}
	if s := p.Metrics().Snapshot(); s.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", s.Dropped)
	}
	// The survivors are the newest three.
	sink := &recordingSink{}
	p.Attach("ivan", sink.deliver)
	drain(t, p)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.got) != 3 || sink.got[0].DocIDs[0] != "d5" || sink.got[2].DocIDs[0] != "d7" {
		ids := []string{}
		for _, n := range sink.got {
			ids = append(ids, n.DocIDs[0])
		}
		t.Fatalf("survivors = %v, want [d5 d6 d7]", ids)
	}
}

func TestShardingPreservesPerClientOrder(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 8, QueueDepth: 64, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sinks := map[string]*recordingSink{}
	for c := 0; c < 20; c++ {
		client := fmt.Sprintf("user-%d", c)
		s := &recordingSink{}
		sinks[client] = s
		p.Attach(client, s.deliver)
	}
	for i := 0; i < 30; i++ {
		for c := 0; c < 20; c++ {
			if err := p.Enqueue(testNotification(fmt.Sprintf("user-%d", c), i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain(t, p)
	for client, s := range sinks {
		if s.len() != 30 {
			t.Fatalf("%s delivered = %d, want 30", client, s.len())
		}
		s.mu.Lock()
		for i, n := range s.got {
			if n.DocIDs[0] != fmt.Sprintf("d%d", i) {
				t.Fatalf("%s out of order at %d: %v", client, i, n.DocIDs)
			}
		}
		s.mu.Unlock()
	}
}

func TestDetachParksSubsequent(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 16, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sink := &recordingSink{}
	p.Attach("judy", sink.deliver)
	if err := p.Enqueue(testNotification("judy", 0)); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	p.Detach("judy")
	if err := p.Enqueue(testNotification("judy", 1)); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	if sink.len() != 1 || p.Pending("judy") != 1 {
		t.Fatalf("delivered=%d parked=%d, want 1/1", sink.len(), p.Pending("judy"))
	}
}

func TestEnqueueAfterClose(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue(testNotification("k", 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentEnqueue(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 4, QueueDepth: 128, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sink := &recordingSink{}
	var total atomic.Int64
	for c := 0; c < 8; c++ {
		p.Attach(fmt.Sprintf("c%d", c), sink.deliver)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := p.Enqueue(testNotification(fmt.Sprintf("c%d", g), i)); err == nil {
					total.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	drain(t, p)
	if int64(sink.len()) != total.Load() {
		t.Fatalf("delivered = %d, enqueued = %d", sink.len(), total.Load())
	}
}
