package replica

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// mailboxDiff lists the clients whose pending sets differ between two
// pipelines: NextSeq and the entry sequences must match exactly.
func mailboxDiff(prim, sby *delivery.Pipeline) []string {
	index := func(p *delivery.Pipeline) map[string]string {
		out := make(map[string]string)
		for _, mb := range p.ExportMailboxes() {
			seqs := make([]uint64, len(mb.Entries))
			for i, e := range mb.Entries {
				seqs[i] = e.Seq
			}
			out[mb.Client] = fmt.Sprintf("next=%d %v", mb.NextSeq, seqs)
		}
		return out
	}
	pm, sm := index(prim), index(sby)
	var diff []string
	for client, want := range pm {
		if got := sm[client]; got != want {
			diff = append(diff, fmt.Sprintf("%s: primary %s, standby %q", client, want, got))
		}
	}
	for client := range sm {
		if _, ok := pm[client]; !ok {
			diff = append(diff, client+": only on the standby")
		}
	}
	return diff
}

// TestStandbyMirrorsPrimaryAfterDrain is the in-tree form of the benchmark's
// standby check: every replication hook is synchronous, so once
// DrainDeliveries returns, the standby's mailboxes equal the primary's —
// under two concurrent publishers, profile churn, four delivery shards and
// detached clients, before and after those clients re-attach.
func TestStandbyMirrorsPrimaryAfterDrain(t *testing.T) {
	const clients, events = 20, 25
	ctx := context.Background()
	p := newPair(t) // core's default pipeline: delivery.DefaultShards = 4 shards
	if err := p.recv.Join(ctx); err != nil {
		t.Fatal(err)
	}
	client := func(c int) string { return fmt.Sprintf("c%02d", c) }
	detached := func(c int) bool { return c%5 == 0 }
	for c := 0; c < clients; c++ {
		if _, err := p.primary.Subscribe(client(c), profile.MustParse(`collection = "Alpha.C"`)); err != nil {
			t.Fatal(err)
		}
		if !detached(c) {
			p.primary.RegisterNotifier(client(c), core.NewMemoryNotifier())
		}
	}

	errs := make(chan error, 3)
	var pubs sync.WaitGroup
	for pub := 0; pub < 2; pub++ {
		pubs.Add(1)
		go func(pub int) {
			defer pubs.Done()
			for i := 0; i < events; i++ {
				ev := event.New(fmt.Sprintf("pub%d-%d", pub, i), event.TypeDocumentsAdded,
					event.QName{Host: "Alpha", Collection: "C"}, 1,
					[]event.DocRef{{ID: fmt.Sprintf("d%d-%d", pub, i)}}, time.Unix(1117584000, 0))
				if _, err := p.primary.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
					errs <- err
					return
				}
			}
		}(pub)
	}
	// Churn beside the publishers: a matching profile comes and goes, so the
	// match set (and with it each publish's chunk) changes under them.
	stop, churned := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(churned)
		for c := 1; ; c++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := p.primary.Subscribe(client(c%clients), profile.MustParse(`collection = "Alpha.C"`))
			if err == nil {
				err = p.primary.Unsubscribe(client(c%clients), id)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	pubs.Wait()
	close(stop)
	<-churned
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	check := func(when string) {
		t.Helper()
		if err := p.primary.DrainDeliveries(ctx); err != nil {
			t.Fatal(err)
		}
		if diff := mailboxDiff(p.primary.Delivery(), p.standby.Delivery()); len(diff) > 0 {
			t.Errorf("%s: standby mailboxes differ for %d clients: %v", when, len(diff), diff)
		}
	}
	check("before re-attach")
	if got := p.primary.Delivery().Pending(client(0)); got < events {
		t.Fatalf("detached %s holds %d parked notifications, want at least %d", client(0), got, events)
	}
	for c := 0; c < clients; c++ {
		if detached(c) {
			p.primary.RegisterNotifier(client(c), core.NewMemoryNotifier())
		}
	}
	check("after re-attach")
	if got := p.standby.Delivery().Pending(client(0)); got != 0 {
		t.Errorf("standby still parks %d notifications for a drained client", got)
	}
}

// TestGroupCommitShipsQueuedRecordsTogether: while one record's envelope is
// in flight, the records queued behind it leave together in the next
// envelope, and no hook returns before the standby applied its record.
func TestGroupCommitShipsQueuedRecordsTogether(t *testing.T) {
	const queued = 8
	ctx := context.Background()
	tr := transport.NewMemory()
	defer func() { _ = tr.Close() }()
	svc, err := core.New(core.Config{ServerName: "Alpha", ServerAddr: "gs://alpha", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	prim, err := NewPrimary(PrimaryConfig{Service: svc, Transport: tr, ListenAddr: "repl://alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = prim.Close() }()

	// A standby that applies dedup records and holds the first envelope
	// until released.
	var (
		mu        sync.Mutex
		applied   = make(map[string]bool)
		envelopes int
	)
	entered, release := make(chan struct{}), make(chan struct{})
	l, err := tr.Listen("repl://standby", transport.HandlerFunc(
		func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
			var wal protocol.ReplWAL
			if err := protocol.Decode(env, protocol.MsgReplWAL, &wal); err != nil {
				return nil, err
			}
			mu.Lock()
			envelopes++
			first := envelopes == 1
			mu.Unlock()
			if first {
				close(entered)
				<-release
			}
			mu.Lock()
			for _, it := range wal.Items {
				applied[it.DedupID] = true
			}
			mu.Unlock()
			return protocol.MustEnvelope("Alpha", protocol.MsgReplAck, &protocol.ReplAck{AppliedSeq: wal.Seq}), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	join := protocol.MustEnvelope("Alpha", protocol.MsgReplAck,
		&protocol.ReplAck{Resync: true, Addr: "repl://standby", ServerName: "Alpha"})
	if err := transport.SendExpect(ctx, tr, "repl://alpha", join, protocol.MsgReplSnapshot, &protocol.ReplSnapshot{}); err != nil {
		t.Fatal(err)
	}

	// unapplied receives the ID of every hook that returned before the
	// standby applied its record, and "" for every hook that did not.
	unapplied := make(chan string, queued+1)
	hook := func(id string) {
		prim.ReplicateDedup(id)
		mu.Lock()
		ok := applied[id]
		mu.Unlock()
		if ok {
			id = ""
		}
		unapplied <- id
	}
	go hook("e0")
	<-entered
	for i := 1; i <= queued; i++ {
		go hook(fmt.Sprintf("e%d", i))
	}
	waitFor(t, func() bool {
		prim.qmu.Lock()
		defer prim.qmu.Unlock()
		return len(prim.queue) == queued
	})
	select {
	case id := <-unapplied:
		t.Fatalf("hook %q returned while the first envelope was still in flight", id)
	default:
	}
	close(release)
	for i := 0; i <= queued; i++ {
		if id := <-unapplied; id != "" {
			t.Errorf("hook %q returned before the standby applied its record", id)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if envelopes > 2 || len(applied) != queued+1 {
		t.Errorf("%d records arrived in %d envelopes, want %d in at most 2", len(applied), envelopes, queued+1)
	}
	if st := prim.ReplicaStats(); st.Streamed != queued+1 || st.StreamLag != 0 {
		t.Errorf("streamed %d records with lag %d, want %d and 0", st.Streamed, st.StreamLag, queued+1)
	}
}
