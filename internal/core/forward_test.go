package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

var (
	superD = event.QName{Host: "Hamilton", Collection: "D"}
	subE   = event.QName{Host: "London", Collection: "E"}
)

// serveForwards routes the server-to-server envelopes arriving at addr to s.
func serveForwards(t *testing.T, tr transport.Transport, addr string, s *Service) {
	t.Helper()
	if _, err := tr.Listen(addr, transport.HandlerFunc(
		func(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
			switch env.Header.Type {
			case protocol.MsgEvent:
				return nil, s.HandleEventEnvelope(ctx, env)
			case protocol.MsgForwardProfile:
				return nil, s.HandleForwardProfile(env)
			case protocol.MsgCancelProfile:
				return nil, s.HandleCancelProfile(env)
			}
			return nil, fmt.Errorf("unexpected %s", env.Header.Type)
		})); err != nil {
		t.Fatal(err)
	}
}

// newLondon builds the sub-collection's server with the aux profile for
// Hamilton.D installed. Unless dcfg says otherwise its pipeline idles its
// retry loop, so parked forwards move only on ResumeForwards.
func newLondon(t *testing.T, tr transport.Transport, dcfg delivery.Config) *Service {
	t.Helper()
	if dcfg.RetryInterval == 0 {
		dcfg.RetryInterval = time.Hour
	}
	s, err := New(Config{
		ServerName: "London", ServerAddr: "addr:London", Transport: tr,
		Resolver:       StaticResolver{"Hamilton": "addr:Hamilton"},
		DeliveryConfig: &dcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	raw, err := profile.NewAuxiliary(auxProfileID(superD, subE), superD, subE).MarshalXMLBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.HandleForwardProfile(protocol.MustEnvelope("Hamilton", protocol.MsgForwardProfile,
		&protocol.ForwardProfile{Profile: protocol.Wrap(raw)})); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildAt publishes one rebuild event of London.E.
func buildAt(t *testing.T, s *Service, id string) {
	t.Helper()
	ev := event.New(id, event.TypeCollectionRebuilt, subE, 1, nil, time.Unix(1117584000, 0))
	if _, err := s.PublishBuild(context.Background(), &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
		t.Fatal(err)
	}
}

// Every kind of entry survives the mailbox WAL's (and the replication
// stream's) notification form and renders the same envelope afterwards.
func TestForwardEntriesRoundTripTheWAL(t *testing.T) {
	s, _, _ := newRoutedService(t)
	id := auxProfileID(superD, subE)
	ev := event.New("London-1", event.TypeCollectionRebuilt, subE, 3, nil, time.Unix(1117584000, 0).UTC())
	for _, n := range []Notification{
		forwardOp(protocol.MsgEvent, id, ev),
		forwardOp(protocol.MsgForwardProfile, id, nil),
		forwardOp(protocol.MsgCancelProfile, id, nil),
	} {
		n.Client = forwardPrefix + "London"
		raw, err := delivery.MarshalNotification(n)
		if err != nil {
			t.Fatal(err)
		}
		back, err := delivery.UnmarshalNotification(raw)
		if err != nil {
			t.Fatal(err)
		}
		wantDest, want, err := s.forwardEnvelope(n)
		if err != nil {
			t.Fatal(err)
		}
		gotDest, got, err := s.forwardEnvelope(back)
		if err != nil {
			t.Fatal(err)
		}
		// The install's profile is stamped at render time.
		if n.Composite == string(protocol.MsgForwardProfile) {
			var a, b protocol.ForwardProfile
			_ = protocol.Decode(want, want.Header.Type, &a)
			_ = protocol.Decode(got, got.Header.Type, &b)
			pa, _ := profile.UnmarshalXMLBytes(a.Profile.Bytes())
			pb, _ := profile.UnmarshalXMLBytes(b.Profile.Bytes())
			if pa.ID != pb.ID || pa.Super != pb.Super || pa.Sub != pb.Sub {
				t.Errorf("install renders %+v after the round trip, want %+v", pb, pa)
			}
			continue
		}
		if gotDest != wantDest || got.Header.Type != want.Header.Type || string(got.Body.Inner) != string(want.Body.Inner) {
			t.Errorf("%s renders %s %s after the round trip, want %s %s",
				n.Composite, gotDest, got.Body.Inner, wantDest, want.Body.Inner)
		}
	}
}

// No client can take a destination server's mailbox key.
func TestForwardKeysAreReserved(t *testing.T) {
	s, tr, _ := newRoutedService(t)
	key := forwardPrefix + "Paris"
	if _, err := s.Subscribe(key, profile.MustParse(`collection = "Hamilton.D"`)); err == nil {
		t.Error("a subscription under a forward key was accepted")
	}
	thief := NewMemoryNotifier()
	s.RegisterNotifier(key, thief)
	s.sendOrQueue(context.Background(), forwardOp(protocol.MsgCancelProfile, "aux:Hamilton.D>Paris.X", nil))
	s.UnregisterNotifier(key)
	paris := listenPeer(t, tr, "addr:Paris")
	s.ResumeForwards()
	drainService(t, s)
	if thief.Len() != 0 {
		t.Errorf("a client sink received %d forwards", thief.Len())
	}
	if got := len(paris.byType(protocol.MsgCancelProfile)); got != 1 {
		t.Errorf("Paris received %d cancels, want 1", got)
	}
}

// Fence: a forward parked during a partition survives a restart of the
// sub-collection's server on the same mailbox directory, and arrives once.
// Until the restarted service takes the serving role (ResumeForwards, as
// gs-server's primary and a promoted standby do) it sends nothing, even
// with the link healed and its retry loop running: a standby restarted on
// its mailbox directory holds forwards that are its primary's to send.
func TestParkedForwardSurvivesRestart(t *testing.T) {
	tr := transport.NewMemory()
	t.Cleanup(func() { _ = tr.Close() })
	store := collection.NewStore("Hamilton")
	_, _ = store.Add(collection.Config{Name: "D", Public: true,
		Subs: []collection.SubRef{{Host: "London", Name: "E"}}})
	hamilton, err := New(Config{ServerName: "Hamilton", ServerAddr: "addr:Hamilton", Transport: tr, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hamilton.Close() })
	serveForwards(t, tr, "addr:Hamilton", hamilton)
	alice := NewMemoryNotifier()
	hamilton.RegisterNotifier("alice", alice)
	if _, err := hamilton.Subscribe("alice", profile.MustParse(`collection = "Hamilton.D"`)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	tr.Partition("London", "addr:Hamilton")
	london := newLondon(t, tr, delivery.Config{Dir: dir})
	buildAt(t, london, "London-1")
	if got := london.PendingForwards(); got != 1 {
		t.Fatalf("parked forwards = %d, want 1", got)
	}
	if err := london.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := newLondon(t, tr, delivery.Config{Dir: dir, FlushInterval: time.Millisecond, RetryInterval: 5 * time.Millisecond})
	tr.Heal("London", "addr:Hamilton")
	time.Sleep(100 * time.Millisecond) // twenty retry intervals
	drainService(t, restarted)
	drainService(t, hamilton)
	if alice.Len() != 0 {
		t.Fatal("the restarted service sent a recovered forward before it resumed them")
	}
	if got := restarted.PendingForwards(); got != 1 {
		t.Fatalf("forwards recovered after the restart = %d, want 1", got)
	}
	restarted.ResumeForwards()
	drainService(t, restarted)
	drainService(t, hamilton)
	if alice.Len() != 1 {
		t.Fatalf("alice notified %d times, want 1", alice.Len())
	}
	if got := restarted.PendingForwards(); got != 0 {
		t.Errorf("forwards still parked after the resume: %d", got)
	}
}

// blackHole counts and fails every send while down is set: a destination
// that is down.
type blackHole struct {
	transport.Transport
	down  atomic.Bool
	sends atomic.Int32
}

func (b *blackHole) Send(ctx context.Context, addr string, env *protocol.Envelope) (*protocol.Envelope, error) {
	if b.down.Load() {
		b.sends.Add(1)
		return nil, transport.ErrPartitioned
	}
	return b.Transport.Send(ctx, addr, env)
}

// A destination that stays down is tried with a doubling backoff, not on
// every retry: the sink runs on a delivery shard's worker, and each try
// holds it for up to a send deadline. A resume tries again at once.
func TestDownDestinationBacksOff(t *testing.T) {
	mem := transport.NewMemory()
	t.Cleanup(func() { _ = mem.Close() })
	hamilton := listenPeer(t, mem, "addr:Hamilton")
	tr := &blackHole{Transport: mem}
	tr.down.Store(true)
	london := newLondon(t, tr, delivery.Config{FlushInterval: time.Millisecond, RetryInterval: 5 * time.Millisecond})
	buildAt(t, london, "London-1")
	london.ResumeForwards()
	time.Sleep(200 * time.Millisecond) // forty retry intervals
	// The inline send, the resume's, then tries 5, 15, 35, 75 and 155 ms
	// later; every retry in between fails without a send.
	if got := tr.sends.Load(); got < 3 || got > 9 {
		t.Errorf("%d sends to a down destination in forty retry intervals, want 3 to 9", got)
	}
	tr.down.Store(false)
	london.ResumeForwards()
	drainService(t, london)
	if got := len(hamilton.byType(protocol.MsgEvent)); got != 1 {
		t.Errorf("Hamilton received %d forwards after the resume, want 1", got)
	}
}

// Fence: the backlog toward one server is capped by MailboxCap; the
// evicted oldest forwards are counted as dropped, the rest arrive in order.
func TestForwardBacklogCappedAndCounted(t *testing.T) {
	const capacity, extra = 8, 3
	tr := transport.NewMemory()
	t.Cleanup(func() { _ = tr.Close() })
	hamilton := listenPeer(t, tr, "addr:Hamilton")
	tr.Partition("London", "addr:Hamilton")
	london := newLondon(t, tr, delivery.Config{MailboxCap: capacity})
	for i := 0; i < capacity+extra; i++ {
		buildAt(t, london, fmt.Sprintf("London-%02d", i))
	}
	m := london.Delivery().Metrics()
	if got := m.Dropped.Value(); got != extra {
		t.Errorf("dropped = %d, want %d", got, extra)
	}
	if got := m.Deferred.Value(); got != 0 {
		t.Errorf("parked forwards counted as %d QoS deferrals", got)
	}
	tr.Heal("London", "addr:Hamilton")
	london.ResumeForwards()
	drainService(t, london)
	var got []string
	for _, env := range hamilton.byType(protocol.MsgEvent) {
		got = append(got, forwardedEventID(t, env))
	}
	var want []string
	for i := extra; i < capacity+extra; i++ {
		want = append(want, fmt.Sprintf("London-%02d", i))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Hamilton received %v, want %v", got, want)
	}
}

// failingSends fails as many sends as its counter holds, then passes the
// rest through: a link that heals while a batch is on it.
type failingSends struct {
	transport.Transport
	fail atomic.Int32
}

func (f *failingSends) Send(ctx context.Context, addr string, env *protocol.Envelope) (*protocol.Envelope, error) {
	if f.fail.Add(-1) >= 0 {
		return nil, transport.ErrPartitioned
	}
	return f.Transport.Send(ctx, addr, env)
}

// A batch queued behind a failed batch of the same mailbox fails with it,
// even when the link heals in between, so the retry resends both in order.
func TestBatchBehindFailedBatchWaits(t *testing.T) {
	mem := transport.NewMemory()
	t.Cleanup(func() { _ = mem.Close() })
	hamilton := listenPeer(t, mem, "addr:Hamilton")
	tr := &failingSends{Transport: mem}
	london := newLondon(t, tr, delivery.Config{BatchSize: 4})
	tr.fail.Store(1) // the first forward parks, and the rest queue behind it
	var want []string
	for i := 0; i < 10; i++ {
		want = append(want, fmt.Sprintf("London-%02d", i))
		buildAt(t, london, want[i])
	}
	received := func() (ids []string) {
		for _, env := range hamilton.byType(protocol.MsgEvent) {
			ids = append(ids, forwardedEventID(t, env))
		}
		return ids
	}
	if got := received(); len(got) != 0 {
		t.Fatalf("received %v before any retry", got)
	}
	tr.fail.Store(1) // the first batch fails, then the link heals
	london.ResumeForwards()
	drainService(t, london)
	if got := received(); len(got) != 0 {
		t.Fatalf("batches behind the failed one were sent ahead of it: %v", got)
	}
	london.ResumeForwards()
	drainService(t, london)
	if got := received(); !reflect.DeepEqual(got, want) {
		t.Errorf("Hamilton received %v, want %v", got, want)
	}
}

func forwardedEventID(t *testing.T, env *protocol.Envelope) string {
	t.Helper()
	var p protocol.EventPayload
	if err := protocol.Decode(env, protocol.MsgEvent, &p); err != nil {
		t.Fatal(err)
	}
	ev, err := event.UnmarshalXMLBytes(p.Event.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return ev.ID
}

// Property: forwards stay FIFO per destination under link-level transport
// faults. A link fault fails or passes a destination's traffic wholesale,
// never one message out of the middle, so each destination must receive
// its forwards in the order they were made, across any pattern of
// partitions while they are made and between retries. The faults come from
// a transport.FaultInjector wrapping the memory transport (drop=1 rules
// scoped To one destination, the chaos harness's link-fault shape).
func TestForwardsFIFOPerDestinationUnderLinkFaults(t *testing.T) {
	const (
		dests    = 5
		forwards = 200
		rounds   = 400
	)
	rng := rand.New(rand.NewSource(16))
	mem := transport.NewMemory()
	t.Cleanup(func() { _ = mem.Close() })
	inj := transport.NewFaultInjector(mem, 16)
	partition := func() {
		inj.ClearRules()
		for d := 0; d < dests; d++ {
			if rng.Intn(2) == 0 {
				inj.AddRule(transport.FaultRule{To: fmt.Sprintf("gs://D%d", d), DropRate: 1})
			}
		}
	}

	var mu sync.Mutex
	delivered := make(map[string][]string)
	seen := make(map[string]bool)
	resolver := StaticResolver{}
	for d := 0; d < dests; d++ {
		dest := fmt.Sprintf("D%d", d)
		resolver[dest] = "gs://" + dest
		if _, err := mem.Listen("gs://"+dest, transport.HandlerFunc(
			func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
				id := forwardedEventID(t, env)
				mu.Lock()
				defer mu.Unlock()
				if !seen[id] { // a retried batch may resend its head
					seen[id] = true
					delivered[dest] = append(delivered[dest], id)
				}
				return nil, nil
			})); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{ServerName: "Src", Transport: inj, Resolver: resolver,
		DeliveryConfig: &delivery.Config{RetryInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	ctx := context.Background()
	sub := event.QName{Host: "Src", Collection: "C"}
	made := make(map[string][]string)
	for i := 0; i < forwards; i++ {
		if i%10 == 0 {
			partition()
		}
		dest := fmt.Sprintf("D%d", rng.Intn(dests))
		ev := event.New(fmt.Sprintf("ev-%03d", i), event.TypeCollectionRebuilt, sub, 1, nil, time.Unix(0, 0))
		s.sendOrQueue(ctx, forwardOp(protocol.MsgEvent, auxProfileID(event.QName{Host: dest, Collection: "S"}, sub), ev))
		made[dest] = append(made[dest], ev.ID)
	}
	for r := 0; r < rounds && s.PendingForwards() > 0; r++ {
		partition()
		s.ResumeForwards()
		drainService(t, s)
	}
	inj.ClearRules()
	s.ResumeForwards()
	drainService(t, s)

	if got := s.PendingForwards(); got != 0 {
		t.Fatalf("%d forwards still parked after healing every link", got)
	}
	if s.Stats().ForwardingFailures == 0 || inj.Stats().Dropped == 0 {
		t.Fatalf("no send ever failed (parked=%d, injector dropped=%d): the fault pattern is vacuous",
			s.Stats().ForwardingFailures, inj.Stats().Dropped)
	}
	for dest, want := range made {
		if got := delivered[dest]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s received out of order or incompletely\ngot:  %v\nwant: %v", dest, got, want)
		}
	}
}
