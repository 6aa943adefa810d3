package queue

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

type fakeSender struct {
	mu       sync.Mutex
	failing  map[string]bool // dest -> failing?
	sent     []string
	failures int
}

func newFakeSender() *fakeSender {
	return &fakeSender{failing: make(map[string]bool)}
}

func (f *fakeSender) send(_ context.Context, it *Item) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing[it.Dest] {
		f.failures++
		return fmt.Errorf("dest %s unreachable", it.Dest)
	}
	f.sent = append(f.sent, it.ID)
	return nil
}

func (f *fakeSender) setFailing(dest string, v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failing[dest] = v
}

func (f *fakeSender) sentIDs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.sent...)
}

func TestNewRequiresSender(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil sender accepted")
	}
}

func TestFlushDeliversInOrder(t *testing.T) {
	fs := newFakeSender()
	now := time.Unix(1000, 0)
	q, err := New(fs.send, WithClock(func() time.Time { now = now.Add(time.Millisecond); return now }))
	if err != nil {
		t.Fatal(err)
	}
	q.Add("a", "X", nil)
	q.Add("b", "X", nil)
	q.Add("c", "X", nil)
	if n := q.Flush(context.Background(), false); n != 3 {
		t.Fatalf("delivered %d", n)
	}
	if got := fs.sentIDs(); fmt.Sprint(got) != "[a b c]" {
		t.Errorf("order = %v", got)
	}
	if q.Len() != 0 {
		t.Errorf("len = %d after flush", q.Len())
	}
	st := q.Stats()
	if st.Succeeded != 3 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetryAfterPartitionHeals(t *testing.T) {
	fs := newFakeSender()
	fs.setFailing("London", true)
	base := time.Unix(1000, 0)
	now := base
	q, _ := New(fs.send, WithClock(func() time.Time { return now }))
	q.baseOff, q.maxOff = time.Second, time.Minute
	q.Add("aux1", "London", "install")

	if n := q.Flush(context.Background(), false); n != 0 {
		t.Fatalf("delivered through partition: %d", n)
	}
	if q.Len() != 1 {
		t.Fatal("item lost after failure")
	}
	// Within backoff window: skipped.
	if n := q.Flush(context.Background(), false); n != 0 {
		t.Fatal("flushed before backoff elapsed")
	}
	if fs.failures != 1 {
		t.Fatalf("failures = %d, want 1 (backoff suppressed retry)", fs.failures)
	}
	// Heal and advance beyond backoff.
	fs.setFailing("London", false)
	now = now.Add(2 * time.Second)
	if n := q.Flush(context.Background(), false); n != 1 {
		t.Fatalf("delivered = %d after heal", n)
	}
	if got := fs.sentIDs(); len(got) != 1 || got[0] != "aux1" {
		t.Errorf("sent = %v", got)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	fs := newFakeSender()
	fs.setFailing("X", true)
	now := time.Unix(0, 0)
	q, _ := New(fs.send, WithClock(func() time.Time { return now }))
	q.baseOff, q.maxOff = time.Second, 8*time.Second
	q.Add("i", "X", nil)
	for i := 0; i < 6; i++ {
		q.Flush(context.Background(), true) // force ignores backoff window
	}
	if it := q.items["i"]; it == nil || it.attempts != 6 {
		t.Fatalf("item after 6 failed flushes = %+v, want 6 attempts", it)
	}
	// After 6 failures backoff would be 32s but caps at 8s.
	// (nextAttempt is private; verify behaviourally: at +7s not eligible,
	// at +9s eligible.)
	fs.setFailing("X", false)
	now = now.Add(7 * time.Second)
	if n := q.Flush(context.Background(), false); n != 0 {
		t.Error("delivered before capped backoff elapsed")
	}
	now = now.Add(2 * time.Second)
	if n := q.Flush(context.Background(), false); n != 1 {
		t.Error("not delivered after capped backoff")
	}
}

func TestReplaceAndRemove(t *testing.T) {
	fs := newFakeSender()
	q, _ := New(fs.send)
	q.Add("id1", "X", "v1")
	q.Add("id1", "X", "v2") // replace
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	if !q.Remove("id1") {
		t.Error("remove existing = false")
	}
	if q.Remove("id1") {
		t.Error("remove twice = true")
	}
}

func TestFlushRespectsContext(t *testing.T) {
	fs := newFakeSender()
	q, _ := New(fs.send)
	for i := 0; i < 10; i++ {
		q.Add(fmt.Sprintf("i%d", i), "X", nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n := q.Flush(ctx, false); n != 0 {
		t.Errorf("delivered %d with cancelled context", n)
	}
	if q.Len() != 10 {
		t.Errorf("items lost: %d", q.Len())
	}
}

func TestBackgroundFlusher(t *testing.T) {
	fs := newFakeSender()
	q, _ := New(fs.send)
	if err := q.Start(-1); err == nil {
		t.Error("negative interval accepted")
	}
	if err := q.Start(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := q.Start(5 * time.Millisecond); err == nil {
		t.Error("double start accepted")
	}
	q.Add("bg1", "X", nil)
	deadline := time.After(2 * time.Second)
	for q.Len() > 0 {
		select {
		case <-deadline:
			t.Fatal("background flusher never delivered")
		case <-time.After(5 * time.Millisecond):
		}
	}
	q.Stop()
	q.Stop() // idempotent
	if got := fs.sentIDs(); len(got) != 1 || got[0] != "bg1" {
		t.Errorf("sent = %v", got)
	}
}

func TestSenderErrorKeepsPayload(t *testing.T) {
	attempts := 0
	q, _ := New(func(_ context.Context, it *Item) error {
		attempts++
		if attempts < 3 {
			return errors.New("flaky")
		}
		if it.Payload.(string) != "precious" {
			t.Errorf("payload = %v", it.Payload)
		}
		return nil
	})
	q.Add("x", "D", "precious")
	for i := 0; i < 3; i++ {
		q.Flush(context.Background(), true)
	}
	if q.Len() != 0 {
		t.Error("item not delivered after success")
	}
	if st := q.Stats(); st.Failed != 2 || st.Succeeded != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestConcurrentStartFlushStop is the -race exercise: Start, Flush, Stop,
// Add and Remove racing from many goroutines must neither data-race nor
// deliver an item twice.
func TestConcurrentStartFlushStop(t *testing.T) {
	var mu sync.Mutex
	sent := make(map[string]int)
	q, err := New(func(_ context.Context, it *Item) error {
		mu.Lock()
		sent[it.ID]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q.Add(fmt.Sprintf("it-%d-%d", w, i), "D", i)
				if i%5 == 0 {
					q.Flush(context.Background(), true)
				}
				if i%7 == 0 {
					_ = q.Start(time.Millisecond) // may already be started
				}
				if i%11 == 0 {
					q.Stop()
				}
				if i%13 == 0 {
					q.Remove(fmt.Sprintf("it-%d-%d", w, i/2))
				}
			}
		}(w)
	}
	wg.Wait()
	q.Flush(context.Background(), true)
	q.Stop()
	mu.Lock()
	defer mu.Unlock()
	for id, n := range sent {
		if n > 1 {
			t.Errorf("item %s delivered %d times", id, n)
		}
	}
	if q.Len() != 0 {
		t.Errorf("%d items left queued after final flush", q.Len())
	}
}

// TestFlushDuringHealFIFOPerDestination models the partition-heal drain: a
// frozen deterministic clock stamps every spooled item with the same
// enqueue time, and the flush after "healing" must still deliver them in
// admission (FIFO) order per destination — the seq tie-break, without which
// equal timestamps sort unstably.
func TestFlushDuringHealFIFOPerDestination(t *testing.T) {
	frozen := time.Unix(500, 0)
	var order []string
	down := true
	q, err := New(func(_ context.Context, it *Item) error {
		if down {
			return errors.New("partitioned")
		}
		order = append(order, it.ID)
		return nil
	}, WithClock(func() time.Time { return frozen }))
	if err != nil {
		t.Fatal(err)
	}
	const perDest = 20
	for i := 0; i < perDest; i++ {
		q.Add(fmt.Sprintf("a-%02d", i), "DestA", i)
		q.Add(fmt.Sprintf("b-%02d", i), "DestB", i)
	}
	// Flush into the partition: everything fails, stays queued.
	if n := q.Flush(context.Background(), true); n != 0 {
		t.Fatalf("delivered %d through a partition", n)
	}
	// Heal and drain.
	down = false
	if n := q.Flush(context.Background(), true); n != 2*perDest {
		t.Fatalf("delivered %d of %d after heal", n, 2*perDest)
	}
	// Per destination, delivery follows admission order exactly.
	var gotA, gotB []string
	for _, id := range order {
		if strings.HasPrefix(id, "a-") {
			gotA = append(gotA, id)
		} else {
			gotB = append(gotB, id)
		}
	}
	for i := 0; i < perDest; i++ {
		if wantA := fmt.Sprintf("a-%02d", i); gotA[i] != wantA {
			t.Fatalf("DestA position %d = %s, want %s (order %v)", i, gotA[i], wantA, gotA)
		}
		if wantB := fmt.Sprintf("b-%02d", i); gotB[i] != wantB {
			t.Fatalf("DestB position %d = %s, want %s (order %v)", i, gotB[i], wantB, gotB)
		}
	}
}
