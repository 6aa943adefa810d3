package delivery

import (
	"slices"
	"testing"
	"time"
)

// A worker's steady state — a full batch ingested, flushed through an
// attached sink and acked in the mailbox — allocates only the copy of the
// batch the sink receives: the batch slice is reused and the ack path
// builds no map.
func TestFullBatchFlushAllocs(t *testing.T) {
	const batch = 32
	p, err := NewPipeline(Config{Shards: 1, BatchSize: batch, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	delivered := 0
	p.Attach("alice", func(_ string, ns []Notification) error {
		delivered += len(ns)
		return nil
	})
	mb, err := p.mailboxOf("alice")
	if err != nil {
		t.Fatal(err)
	}
	w := &batcher{open: make(map[string][]item)}
	n := testNotification("alice", 1)
	n.At = time.Now()
	fill := func() {
		for i := 0; i < batch; i++ {
			seq, _, err := mb.add(n)
			if err != nil {
				t.Fatal(err)
			}
			p.inflight.Add(1)
			p.ingest(w, item{n: n, seq: seq})
		}
	}
	allocs := testing.AllocsPerRun(20, fill)
	if allocs > 1 {
		t.Errorf("full-batch ingest+flush+ack: %.1f allocs per batch, want 1 (the sink's copy)", allocs)
	}
	if got := mb.pendingCount(); got != 0 {
		t.Errorf("%d entries left in the mailbox after every batch was acked", got)
	}
	if delivered != 21*batch {
		t.Errorf("delivered %d notifications, want %d", delivered, 21*batch)
	}
}

// flushAll keeps a flushed client's emptied batch for reuse and drops it
// at the next pass if the client stayed idle.
func TestFlushAllDropsIdleBatch(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, BatchSize: 8, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Attach("bob", func(string, []Notification) error { return nil })
	mb, err := p.mailboxOf("bob")
	if err != nil {
		t.Fatal(err)
	}
	w := &batcher{open: make(map[string][]item)}
	seq, _, _ := mb.add(testNotification("bob", 1))
	p.inflight.Add(1)
	p.ingest(w, item{n: testNotification("bob", 1), seq: seq})

	p.flushAll(w)
	b, kept := w.open["bob"]
	if !kept || len(b) != 0 || cap(b) == 0 {
		t.Fatalf("after a flush: batch kept=%v len=%d cap=%d, want an empty batch kept for reuse", kept, len(b), cap(b))
	}
	if b[:1][0].n.Event != nil {
		t.Error("a flushed batch still references its notifications")
	}
	p.flushAll(w)
	if _, kept := w.open["bob"]; kept {
		t.Error("a batch idle for a whole pass was not dropped")
	}
}

// ack finds entries by sequence whatever their order in the mailbox
// (recovery restores WAL append order, which a standby may have written
// out of seq order) and reports them in entry order.
func TestMailboxAckFindsEntriesOutOfSeqOrder(t *testing.T) {
	mb, err := newMailbox("", "carol", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{5, 3, 9, 1} {
		mb.entries = append(mb.entries, entry{seq: seq})
	}
	var ops []MailboxOp
	mb.ack([]uint64{1, 3, 9}, &ops)
	var got []uint64
	for _, op := range ops {
		if !op.Ack || op.Client != "carol" {
			t.Errorf("op %+v, want an ack for carol", op)
		}
		got = append(got, op.Seq)
	}
	if want := []uint64{3, 9, 1}; !slices.Equal(got, want) {
		t.Errorf("acked %v, want %v (entry order)", got, want)
	}
	if len(mb.entries) != 1 || mb.entries[0].seq != 5 {
		t.Errorf("left %+v, want only seq 5", mb.entries)
	}
}

// A client batch that interleaves QoS classes can carry its seqs out of
// order; ackItems sorts them before the mailbox looks them up.
func TestAckItemsUnsortedBatch(t *testing.T) {
	p, err := NewPipeline(Config{Shards: 1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mb, err := p.mailboxOf("dave")
	if err != nil {
		t.Fatal(err)
	}
	var b []item
	for i := 0; i < 4; i++ {
		n := testNotification("dave", i)
		seq, _, _ := mb.add(n)
		b = append(b, item{n: n, seq: seq})
	}
	slices.Reverse(b)
	pass := flushPass{obs: func([]MailboxOp) {}}
	p.ackItems(&batcher{}, "dave", b, &pass)
	if got := mb.pendingCount(); got != 0 {
		t.Errorf("%d entries left after acking the whole batch", got)
	}
	if len(pass.acks) != 4 {
		t.Errorf("pass holds %d acks, want 4", len(pass.acks))
	}
}
