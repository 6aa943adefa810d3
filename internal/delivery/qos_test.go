package delivery

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/qos"
)

func testContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 10*time.Second)
}

func qosNotif(client string, class qos.Class, i int) Notification {
	ev := event.New(fmt.Sprintf("ev-%s-%d-%d", client, class, i), event.TypeDocumentsChanged,
		event.QName{Host: "H", Collection: "C"}, 1, nil, time.Now())
	return Notification{Client: client, ProfileID: "p", Event: ev, Class: class, At: time.Now()}
}

// TestWFQRealtimeOvertakesBulk verifies the scheduling point of the
// per-class queues: realtime enqueued AFTER a bulk backlog is still serviced
// first once the worker frees up.
func TestWFQRealtimeOvertakesBulk(t *testing.T) {
	p, err := NewPipeline(Config{
		Shards:        1,
		QueueDepth:    256,
		BatchSize:     1,                // flush per item: delivery order == dequeue order
		FlushInterval: 10 * time.Second, // keep the ticker out of the ordering
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var mu sync.Mutex
	var order []qos.Class
	record := func(_ string, batch []Notification) error {
		mu.Lock()
		for _, n := range batch {
			order = append(order, n.Class)
		}
		mu.Unlock()
		return nil
	}

	// Gate the single worker inside a delivery so the backlog builds up in
	// the class queues, not in batches.
	entered := make(chan struct{})
	release := make(chan struct{})
	p.Attach("gate", func(_ string, _ []Notification) error {
		close(entered)
		<-release
		return nil
	})
	p.Attach("b", record)
	p.Attach("r", record)
	if err := p.Enqueue(qosNotif("gate", qos.ClassNormal, 0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the gate item")
	}
	const bulk, rt = 20, 5
	for i := 0; i < bulk; i++ {
		if err := p.Enqueue(qosNotif("b", qos.ClassBulk, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rt; i++ {
		if err := p.Enqueue(qosNotif("r", qos.ClassRealtime, i)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == bulk+rt {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", n, bulk+rt)
		}
		time.Sleep(time.Millisecond)
	}
	// All realtime items fit inside one credit cycle (5 < weight 8), so
	// every one of them must be delivered before every bulk item, despite
	// being enqueued after the whole bulk backlog.
	mu.Lock()
	defer mu.Unlock()
	firstBulk, lastRT := -1, -1
	for i, c := range order {
		if c == qos.ClassBulk && firstBulk < 0 {
			firstBulk = i
		}
		if c == qos.ClassRealtime {
			lastRT = i
		}
	}
	if firstBulk < lastRT {
		t.Errorf("bulk delivered at %d before the last realtime at %d: order %v", firstBulk, lastRT, order)
	}
	m := p.Metrics().Snapshot()
	if m.Classes[qos.ClassRealtime].Delivered != rt || m.Classes[qos.ClassBulk].Delivered != bulk {
		t.Errorf("per-class delivered = %+v", m.Classes)
	}
	if m.Classes[qos.ClassRealtime].P99 <= 0 {
		t.Error("realtime latency histogram empty")
	}
}

// TestBulkNotStarvedUnderRealtimeFlood floods realtime while trickling bulk
// and asserts bulk still drains: the WFQ weight guarantees service.
func TestBulkNotStarvedUnderRealtimeFlood(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 4096, BatchSize: 8, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var delivered sync.Map
	sink := func(client string, batch []Notification) error {
		v, _ := delivered.LoadOrStore(client, new(int))
		*(v.(*int)) += len(batch)
		return nil
	}
	p.Attach("rt", sink)
	p.Attach("blk", sink)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := p.Enqueue(qosNotif("rt", qos.ClassRealtime, i)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := p.Enqueue(qosNotif("blk", qos.ClassBulk, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := testContext(t)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"rt": n, "blk": n / 10}
	for client, w := range want {
		v, ok := delivered.Load(client)
		if !ok || *(v.(*int)) != w {
			t.Errorf("%s delivered %v, want %d", client, v, w)
		}
	}
}

func TestDeferParksThenRedelivers(t *testing.T) {
	p, err := NewPipeline(Config{
		Shards:        1,
		FlushInterval: 5 * time.Millisecond,
		RetryInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := make(chan Notification, 1)
	p.Attach("u", func(_ string, batch []Notification) error {
		for _, n := range batch {
			got <- n
		}
		return nil
	})
	if err := p.Defer(qosNotif("u", qos.ClassNormal, 0)); err != nil {
		t.Fatal(err)
	}
	if pending := p.Pending("u"); pending != 1 {
		t.Fatalf("pending = %d immediately after Defer, want 1 (not queued)", pending)
	}
	if d := p.Metrics().Deferred.Value(); d != 1 {
		t.Errorf("Deferred counter = %d", d)
	}
	// The retry loop redelivers after RetryInterval without any re-attach.
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("deferred notification never redelivered")
	}
	if pending := p.Pending("u"); pending != 0 {
		t.Errorf("pending = %d after redelivery", pending)
	}
}

func TestDeferDrainsOnAttach(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, FlushInterval: 5 * time.Millisecond, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// No sink attached: Defer parks silently.
	if err := p.Defer(qosNotif("u", qos.ClassNormal, 0)); err != nil {
		t.Fatal(err)
	}
	got := make(chan Notification, 1)
	p.Attach("u", func(_ string, batch []Notification) error {
		for _, n := range batch {
			got <- n
		}
		return nil
	})
	select {
	case n := <-got:
		if n.Class != qos.ClassNormal {
			t.Errorf("class = %v", n.Class)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("attach did not drain the deferred notification")
	}
}

// TestWALClassRoundTrip restarts a durable pipeline and checks the QoS
// class of a parked notification survives recovery.
func TestWALClassRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPipeline(Config{Shards: 1, Dir: dir, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// No sink: the notification parks durably.
	if err := p.Enqueue(qosNotif("u", qos.ClassBulk, 0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := testContext(t)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := NewPipeline(Config{Shards: 1, Dir: dir, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	got := make(chan Notification, 1)
	p2.Attach("u", func(_ string, batch []Notification) error {
		for _, n := range batch {
			got <- n
		}
		return nil
	})
	select {
	case n := <-got:
		if n.Class != qos.ClassBulk {
			t.Errorf("recovered class = %v, want bulk", n.Class)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recovered notification not delivered")
	}
}

// BenchmarkQoSScheduling records the WFQ scheduling cost on the delivery
// hot path (experiment E15): the enqueue→WFQ-dequeue→flush path under
// single-class traffic (everything normal, the pre-QoS shape) against a
// three-class mix (realtime/normal/bulk round-robin through per-class
// queues and the deficit scheduler), at 8 and 64 clients.
func BenchmarkQoSScheduling(b *testing.B) {
	classRing := []qos.Class{qos.ClassNormal, qos.ClassRealtime, qos.ClassBulk}
	for _, clients := range []int{8, 64} {
		for _, classes := range []int{1, 3} {
			b.Run(fmt.Sprintf("classes=%d/clients=%d", classes, clients), func(b *testing.B) {
				p, err := NewPipeline(Config{
					Shards:        4,
					QueueDepth:    4096,
					BatchSize:     64,
					FlushInterval: time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				names := make([]string, clients)
				for i := range names {
					names[i] = fmt.Sprintf("u%d", i)
					p.Attach(names[i], func(string, []Notification) error { return nil })
				}
				n := qosNotif("", qos.ClassNormal, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Client, n.Class = names[i%clients], classRing[i%classes]
					if err := p.Enqueue(n); err != nil {
						b.Fatal(err)
					}
				}
				if err := p.Drain(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := p.Metrics().Delivered.Value(); got < int64(b.N) {
					b.Fatalf("delivered %d of %d", got, b.N)
				}
			})
		}
	}
}
