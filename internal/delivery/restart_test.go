package delivery

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestBlockedEnqueueSurvivesClose pins the one exit a full queue has besides
// a free slot: an Enqueue blocked on a full class queue when Close begins
// returns ErrClosed with its notification parked, not lost. The worker is
// held inside a failing sink so nothing is delivered; a pipeline restarted
// over the same directory recovers all three notifications (the one in the
// sink, the queued one and the blocked one) and drains them in FIFO order.
func TestBlockedEnqueueSurvivesClose(t *testing.T) {
	cfg := Config{Shards: 1, QueueDepth: 1, BatchSize: 1, FlushInterval: time.Hour, Dir: t.TempDir()}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	p.Attach("ivy", func(string, []Notification) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return errors.New("transport gone")
	})
	if err := p.Enqueue(testNotification("ivy", 0)); err != nil {
		t.Fatal(err)
	}
	<-entered // the worker is pinned inside the sink
	if err := p.Enqueue(testNotification("ivy", 1)); err != nil {
		t.Fatal(err) // fills the depth-1 normal-class queue
	}
	blocked := make(chan error, 1)
	go func() { blocked <- p.Enqueue(testNotification("ivy", 2)) }()
	// admit counts an item inflight before it waits for a slot.
	deadline := time.Now().Add(10 * time.Second)
	for p.inflight.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("third Enqueue never reached the full queue")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	// Close cannot finish while the sink holds the worker, but it stops
	// admissions first: the blocked Enqueue gives up before the release.
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Enqueue returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Enqueue did not return once Close began")
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Metrics().Recovered.Value(); got != 3 {
		t.Fatalf("recovered = %d, want 3", got)
	}
	if got := p2.Pending("ivy"); got != 3 {
		t.Fatalf("parked after restart = %d, want 3", got)
	}
	sink := &recordingSink{}
	p2.Attach("ivy", sink.deliver)
	drain(t, p2)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.got) != 3 {
		t.Fatalf("delivered after restart = %d, want 3", len(sink.got))
	}
	for i, n := range sink.got {
		if n.DocIDs[0] != fmt.Sprintf("d%d", i) {
			t.Fatalf("out of FIFO order at %d: got %v", i, n.DocIDs)
		}
	}
}
