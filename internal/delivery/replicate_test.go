package delivery

import (
	"context"
	"sync"
	"testing"
	"time"
)

// opRecorder is a mailbox observer counting calls and ops by kind.
type opRecorder struct {
	mu                    sync.Mutex
	appendCalls, ackCalls int
	appends, acks         int
}

func (r *opRecorder) observe(ops []MailboxOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var appends, acks int
	for _, op := range ops {
		if op.Ack {
			acks++
		} else {
			appends++
		}
	}
	if appends > 0 {
		r.appendCalls++
		r.appends += appends
	}
	if acks > 0 {
		r.ackCalls++
		r.acks += acks
	}
}

// TestFlushPassReportsAcksOnce pins the replicated-ack batching: one
// EnqueueAll chunk is one append call, and one flush pass over several
// client batches is one ack call holding every batch's acks.
func TestFlushPassReportsAcksOnce(t *testing.T) {
	const clients = 5
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 64, BatchSize: 32, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rec := &opRecorder{}
	p.SetObserver(rec.observe)
	sink := &recordingSink{}
	var ns []Notification
	for c := 0; c < clients; c++ {
		client := string(rune('a' + c))
		p.Attach(client, sink.deliver)
		ns = append(ns, testNotification(client, c))
	}
	if queued, err := p.EnqueueAll(ns); queued != clients || err != nil {
		t.Fatalf("EnqueueAll = %d, %v; want %d, nil", queued, err, clients)
	}
	drain(t, p)
	if sink.len() != clients || sink.batchCount() != clients {
		t.Fatalf("delivered %d in %d batches, want %d in %d", sink.len(), sink.batchCount(), clients, clients)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.appendCalls != 1 || rec.appends != clients {
		t.Errorf("appends reported in %d calls holding %d ops, want 1 call holding %d", rec.appendCalls, rec.appends, clients)
	}
	if rec.ackCalls != 1 || rec.acks != clients {
		t.Errorf("acks reported in %d calls holding %d ops, want 1 call holding %d", rec.ackCalls, rec.acks, clients)
	}
}

// TestDrainWaitsForAckObserver: Drain is the caller's proof that the
// observer (a replication stream) has seen every ack, so it must not
// return while the observer is still handling a flush pass's acks.
func TestDrainWaitsForAckObserver(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, QueueDepth: 8, BatchSize: 8, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var enter, unblock sync.Once
	releaseObserver := func() { unblock.Do(func() { close(release) }) }
	defer releaseObserver() // before Close, which waits for the worker
	p.SetObserver(func(ops []MailboxOp) {
		if ops[0].Ack {
			enter.Do(func() { close(entered) })
			<-release
		}
	})
	sink := &recordingSink{}
	p.Attach("alice", sink.deliver)
	if err := p.Enqueue(testNotification("alice", 0)); err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- p.Drain(context.Background()) }()
	<-entered
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while the ack observer was still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	releaseObserver()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the ack observer did")
	}
}
