package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/transport"
)

// qosService builds a solitary service with the given admission controller.
func qosService(t *testing.T, ctrl *qos.Controller) *Service {
	t.Helper()
	tr := transport.NewMemory()
	s, err := New(Config{
		ServerName: "Hamilton",
		ServerAddr: "addr:Hamilton",
		Transport:  tr,
		Resolver:   StaticResolver{},
		QoS:        ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// subscribeClass registers a profile matching the test collection for one
// client at the given class, returning the profile ID.
func subscribeClass(t *testing.T, s *Service, client string, class qos.Class) string {
	t.Helper()
	p := profile.NewUser(s.nextID("p"), client, s.Name(),
		profile.MustParse(`collection = "Hamilton.C" AND event.type = "documents-added"`))
	p.Class = class
	if err := s.SubscribeProfile(p); err != nil {
		t.Fatal(err)
	}
	return p.ID
}

// publishAdds publishes n documents-added events for Hamilton.C.
func publishAdds(t *testing.T, s *Service, n int, tag string) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		ev := event.New(fmt.Sprintf("qos-%s-%d", tag, i), event.TypeDocumentsAdded,
			event.QName{Host: "Hamilton", Collection: "C"}, 1,
			[]event.DocRef{{ID: fmt.Sprintf("d-%s-%d", tag, i)}}, time.Now())
		if _, err := s.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
			t.Fatal(err)
		}
	}
	drainService(t, s)
}

func TestQoSDegradationLadder(t *testing.T) {
	// Burst-only subscriber quota of 2: of 6 events, realtime gets all 6,
	// normal gets 2 now + 4 deferred, bulk gets 2 now + 4 coalesced into
	// one digest.
	const events, burst = 6, 2
	s := qosService(t, qos.NewController(qos.Config{
		SubscriberBurst: burst,
		BulkDigestEvery: time.Minute,
	}))
	rt, nm, blk := NewMemoryNotifier(), NewMemoryNotifier(), NewMemoryNotifier()
	s.RegisterNotifier("rt", rt)
	s.RegisterNotifier("nm", nm)
	s.RegisterNotifier("blk", blk)
	subscribeClass(t, s, "rt", qos.ClassRealtime)
	subscribeClass(t, s, "nm", qos.ClassNormal)
	blkID := subscribeClass(t, s, "blk", qos.ClassBulk)

	publishAdds(t, s, events, "a")

	if got := rt.Len(); got != events {
		t.Errorf("realtime delivered %d, want %d (never shed)", got, events)
	}
	if got := nm.Len(); got != burst {
		t.Errorf("normal delivered %d promptly, want %d", got, burst)
	}
	if parked := s.Delivery().Pending("nm"); parked != events-burst {
		t.Errorf("normal parked %d, want %d deferred", parked, events-burst)
	}
	if got := blk.Len(); got != burst {
		t.Errorf("bulk delivered %d promptly, want %d", got, burst)
	}

	// The deferred normal backlog drains on re-attach — delayed, not lost.
	s.RegisterNotifier("nm", nm)
	drainService(t, s)
	if got := nm.Len(); got != events {
		t.Errorf("normal total after re-attach = %d, want %d", got, events)
	}

	// The coalesced bulk backlog flushes as one digest carrying the shed
	// events.
	s.CompositeTick(time.Now().Add(2 * time.Minute))
	drainService(t, s)
	var digests, carried int
	for _, n := range blk.All() {
		if n.Composite == "digest" {
			digests++
			carried += len(n.Contributing)
			if n.ProfileID != blkID {
				t.Errorf("digest delivered for profile %q, want %q", n.ProfileID, blkID)
			}
			if n.Class != qos.ClassBulk {
				t.Errorf("digest class = %v, want bulk", n.Class)
			}
		}
	}
	if digests != 1 || carried != events-burst {
		t.Errorf("digests = %d carrying %d events, want 1 carrying %d", digests, carried, events-burst)
	}

	st := s.Stats()
	wantAdmitted := int64(events + burst + burst)
	if st.QoSAdmitted != wantAdmitted || st.QoSDeferred != events-burst || st.QoSCoalesced != events-burst {
		t.Errorf("accounting admitted/deferred/coalesced = %d/%d/%d, want %d/%d/%d",
			st.QoSAdmitted, st.QoSDeferred, st.QoSCoalesced, wantAdmitted, events-burst, events-burst)
	}
	if st.QoSAdmitted+st.QoSDeferred+st.QoSCoalesced != int64(3*events) {
		t.Errorf("accounting does not cover every match: %d+%d+%d != %d",
			st.QoSAdmitted, st.QoSDeferred, st.QoSCoalesced, 3*events)
	}
	if st.QoSDigests != 1 {
		t.Errorf("QoSDigests = %d, want 1", st.QoSDigests)
	}
}

func TestQoSCollectionQuota(t *testing.T) {
	// A hot collection hits its own bucket: normal subscribers degrade even
	// though their subscriber buckets still hold tokens; realtime is
	// untouched.
	const events, collBurst = 5, 2
	s := qosService(t, qos.NewController(qos.Config{
		CollectionBurst: collBurst,
		BulkDigestEvery: time.Minute,
	}))
	rt, nm := NewMemoryNotifier(), NewMemoryNotifier()
	s.RegisterNotifier("rt", rt)
	s.RegisterNotifier("nm", nm)
	subscribeClass(t, s, "rt", qos.ClassRealtime)
	subscribeClass(t, s, "nm", qos.ClassNormal)

	publishAdds(t, s, events, "c")

	if got := rt.Len(); got != events {
		t.Errorf("realtime delivered %d, want %d", got, events)
	}
	if got := nm.Len(); got != collBurst {
		t.Errorf("normal delivered %d promptly, want %d (collection quota)", got, collBurst)
	}
	st := s.Stats()
	if st.QoSDeferred != events-collBurst {
		t.Errorf("deferred = %d, want %d", st.QoSDeferred, events-collBurst)
	}
}

func TestQoSUnsubscribeDropsPendingDigest(t *testing.T) {
	s := qosService(t, qos.NewController(qos.Config{
		SubscriberBurst: 1,
		BulkDigestEvery: time.Minute,
	}))
	blk := NewMemoryNotifier()
	s.RegisterNotifier("blk", blk)
	blkID := subscribeClass(t, s, "blk", qos.ClassBulk)
	publishAdds(t, s, 3, "u") // 1 delivered, 2 coalesced

	if err := s.Unsubscribe("blk", blkID); err != nil {
		t.Fatal(err)
	}
	s.CompositeTick(time.Now().Add(2 * time.Minute))
	drainService(t, s)
	for _, n := range blk.All() {
		if n.Composite == "digest" {
			t.Error("cancelled profile still flushed a coalesced digest")
		}
	}
}

func TestQoSDisabledIsTransparent(t *testing.T) {
	// Without a controller, classed profiles deliver everything (classes
	// only steer scheduling weights) and QoS counters stay zero.
	s := qosService(t, nil)
	blk := NewMemoryNotifier()
	s.RegisterNotifier("blk", blk)
	subscribeClass(t, s, "blk", qos.ClassBulk)
	publishAdds(t, s, 4, "d")
	if got := blk.Len(); got != 4 {
		t.Errorf("delivered %d, want 4", got)
	}
	st := s.Stats()
	if st.QoSAdmitted != 0 || st.QoSDeferred != 0 || st.QoSCoalesced != 0 {
		t.Errorf("QoS counters moved without a controller: %+v", st)
	}
	// Runtime enablement via SetQoS takes effect immediately.
	s.SetQoS(qos.NewController(qos.Config{SubscriberBurst: 1, BulkDigestEvery: time.Minute}))
	publishAdds(t, s, 3, "e")
	st = s.Stats()
	if st.QoSAdmitted != 1 || st.QoSCoalesced != 2 {
		t.Errorf("post-SetQoS admitted/coalesced = %d/%d, want 1/2", st.QoSAdmitted, st.QoSCoalesced)
	}
}

func TestProfileClassSurvivesPersistence(t *testing.T) {
	// The class rides the profile wire form, so persistence (and with it
	// replication, which reuses the same XML) round-trips it.
	p := profile.NewUser("p-1", "alice", "Hamilton",
		profile.MustParse(`collection = "Hamilton.C"`))
	p.Class = qos.ClassRealtime
	raw, err := p.MarshalXMLBytes()
	if err != nil {
		t.Fatal(err)
	}
	back, err := profile.UnmarshalXMLBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Class != qos.ClassRealtime {
		t.Errorf("class after round-trip = %v, want realtime", back.Class)
	}
	// A class this build does not know (a newer peer's wire form) degrades
	// to normal instead of failing replication apply / snapshot restore.
	future := strings.Replace(string(raw), "<Class>realtime</Class>", "<Class>hyperreal</Class>", 1)
	if future == string(raw) {
		t.Fatal("wire form did not contain the class element")
	}
	degraded, err := profile.UnmarshalXMLBytes([]byte(future))
	if err != nil {
		t.Fatalf("unknown class failed the parse: %v", err)
	}
	if degraded.Class != qos.ClassNormal {
		t.Errorf("unknown class parsed as %v, want normal", degraded.Class)
	}
	// Default class stays absent from the wire form (back-compat).
	p.Class = qos.ClassNormal
	raw, err = p.MarshalXMLBytes()
	if err != nil {
		t.Fatal(err)
	}
	if contains := string(raw); len(contains) > 0 && strings.Contains(contains, "<Class>") {
		t.Errorf("normal class serialized explicitly: %s", contains)
	}
}

// TestStatsConcurrentWithPublishAndChurn hammers Stats() beside concurrent
// publishers and profile churn (run under -race: Stats takes no lock, every
// counter is an atomic), then checks the accounting promise in the
// ServiceStats comment at quiescence: every non-step match landed in
// exactly one of admitted, deferred, coalesced or NotifyFailures.
func TestStatsConcurrentWithPublishAndChurn(t *testing.T) {
	s := qosService(t, qos.NewController(qos.Config{SubscriberBurst: 5, BulkDigestEvery: time.Hour}))
	// Three stable subscriptions match every event, one per class; the
	// churned ones watch another collection and never match.
	for i, class := range []qos.Class{qos.ClassRealtime, qos.ClassNormal, qos.ClassBulk} {
		client := fmt.Sprintf("stable-%d", i)
		s.RegisterNotifier(client, NewMemoryNotifier())
		subscribeClass(t, s, client, class)
	}
	const publishers, perPublisher = 4, 50
	ctx := context.Background()
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.EventsPublished < last {
					t.Errorf("EventsPublished went backwards: %d after %d", st.EventsPublished, last)
				}
				last = st.EventsPublished
			}
		}()
	}
	for p := 0; p < publishers; p++ {
		writers.Add(2)
		go func(p int) {
			defer writers.Done()
			for i := 0; i < perPublisher; i++ {
				ev := event.New(fmt.Sprintf("conc-%d-%d", p, i), event.TypeDocumentsAdded,
					event.QName{Host: "Hamilton", Collection: "C"}, 1,
					[]event.DocRef{{ID: fmt.Sprintf("d-%d-%d", p, i)}}, time.Now())
				if _, err := s.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
					t.Error(err)
				}
			}
		}(p)
		go func(p int) {
			defer writers.Done()
			client := fmt.Sprintf("churn-%d", p)
			for i := 0; i < perPublisher; i++ {
				id, err := s.Subscribe(client, profile.MustParse(`collection = "Hamilton.Other"`))
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Unsubscribe(client, id); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	drainService(t, s)

	st := s.Stats()
	const events = publishers * perPublisher
	if st.EventsPublished != events {
		t.Errorf("EventsPublished = %d, want %d", st.EventsPublished, events)
	}
	accounted := st.QoSAdmitted + st.QoSDeferred + st.QoSCoalesced + st.NotifyFailures
	if want := int64(3 * events); accounted != want {
		t.Errorf("admitted %d + deferred %d + coalesced %d + refused %d = %d, want every one of the %d matches",
			st.QoSAdmitted, st.QoSDeferred, st.QoSCoalesced, st.NotifyFailures, accounted, want)
	}
	if st.QoSDeferred == 0 || st.QoSCoalesced == 0 {
		t.Errorf("quota of 5 never shed: deferred=%d coalesced=%d", st.QoSDeferred, st.QoSCoalesced)
	}
}
