package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// peerRecorder registers an address and records envelopes by type.
type peerRecorder struct {
	mu  sync.Mutex
	got []*protocol.Envelope
}

func listenPeer(t *testing.T, tr transport.Transport, addr string) *peerRecorder {
	t.Helper()
	r := &peerRecorder{}
	if _, err := tr.Listen(addr, transport.HandlerFunc(
		func(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
			r.mu.Lock()
			r.got = append(r.got, env)
			r.mu.Unlock()
			return nil, nil
		})); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *peerRecorder) byType(typ protocol.MessageType) []*protocol.Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*protocol.Envelope
	for _, e := range r.got {
		if e.Header.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// newRoutedService builds a Hamilton service over a fresh memory transport
// with a static resolver and a local store.
func newRoutedService(t *testing.T) (*Service, *transport.Memory, *collection.Store) {
	t.Helper()
	tr := transport.NewMemory()
	t.Cleanup(func() { _ = tr.Close() })
	store := collection.NewStore("Hamilton")
	s, err := New(Config{
		ServerName: "Hamilton",
		ServerAddr: "addr:Hamilton",
		Transport:  tr,
		Resolver:   StaticResolver{"London": "addr:London", "Paris": "addr:Paris"},
		Store:      store,
		// Parked forwards move only when a test resumes them.
		DeliveryConfig: &delivery.Config{RetryInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, tr, store
}

func TestSyncAuxProfilesInstallAndCancel(t *testing.T) {
	s, tr, store := newRoutedService(t)
	london := listenPeer(t, tr, "addr:London")
	ctx := context.Background()

	// D references London.E -> one install.
	coll, err := store.Add(collection.Config{Name: "D", Public: true,
		Subs: []collection.SubRef{{Host: "London", Name: "E"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SyncAuxProfiles(ctx); err != nil {
		t.Fatal(err)
	}
	installs := london.byType(protocol.MsgForwardProfile)
	if len(installs) != 1 {
		t.Fatalf("installs = %d", len(installs))
	}
	var fp protocol.ForwardProfile
	if err := protocol.Decode(installs[0], protocol.MsgForwardProfile, &fp); err != nil {
		t.Fatal(err)
	}
	p, err := profile.UnmarshalXMLBytes(fp.Profile.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != profile.KindAuxiliary || p.Super.String() != "Hamilton.D" || p.Sub.String() != "London.E" {
		t.Errorf("aux profile = %+v", p)
	}
	if got := s.ForwardedAuxIDs(); len(got) != 1 {
		t.Errorf("forwarded ids = %v", got)
	}

	// Idempotent: re-sync sends nothing new.
	if err := s.SyncAuxProfiles(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(london.byType(protocol.MsgForwardProfile)); got != 1 {
		t.Errorf("re-sync sent %d installs", got)
	}

	// Dropping the reference sends a cancel.
	if err := coll.SetConfig(collection.Config{Name: "D", Public: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncAuxProfiles(ctx); err != nil {
		t.Fatal(err)
	}
	cancels := london.byType(protocol.MsgCancelProfile)
	if len(cancels) != 1 {
		t.Fatalf("cancels = %d", len(cancels))
	}
	if got := s.ForwardedAuxIDs(); len(got) != 0 {
		t.Errorf("forwarded ids after cancel = %v", got)
	}
}

// An install that waits for an unreachable London and the cancel of the
// same reference park in order: London, once up, applies both and ends
// with no aux profile.
func TestSyncAuxProfilesQueuedInstallSupersededByRemoval(t *testing.T) {
	s, tr, store := newRoutedService(t)
	ctx := context.Background()
	coll, _ := store.Add(collection.Config{Name: "D", Public: true,
		Subs: []collection.SubRef{{Host: "London", Name: "E"}}})
	if err := s.SyncAuxProfiles(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingForwards(); got != 1 {
		t.Fatalf("parked = %d", got)
	}
	_ = coll.SetConfig(collection.Config{Name: "D", Public: true})
	if err := s.SyncAuxProfiles(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingForwards(); got != 2 {
		t.Fatalf("parked after removal = %d", got)
	}
	if got := s.ForwardedAuxIDs(); len(got) != 0 {
		t.Errorf("forwarded ids = %v", got)
	}
	london := listenPeer(t, tr, "addr:London")
	s.ResumeForwards()
	drainService(t, s)
	var order []protocol.MessageType
	for _, env := range london.got {
		order = append(order, env.Header.Type)
	}
	if fmt.Sprint(order) != fmt.Sprint([]protocol.MessageType{protocol.MsgForwardProfile, protocol.MsgCancelProfile}) {
		t.Errorf("London received %v, want the install then the cancel", order)
	}
	if got := s.PendingForwards(); got != 0 {
		t.Errorf("parked after resume = %d", got)
	}
}

func TestForwardedEventValidation(t *testing.T) {
	s, _, store := newRoutedService(t)
	_, _ = store.Add(collection.Config{Name: "D", Public: true,
		Subs: []collection.SubRef{{Host: "London", Name: "E"}}})
	ctx := context.Background()

	mkEnv := func(transformTo string, ev *event.Event) *protocol.Envelope {
		raw, err := ev.MarshalXMLBytes()
		if err != nil {
			t.Fatal(err)
		}
		return protocol.MustEnvelope("London", protocol.MsgEvent, &protocol.EventPayload{
			TransformTo: transformTo,
			Event:       protocol.Wrap(raw),
		})
	}
	ev := event.New("e1", event.TypeCollectionRebuilt, event.QName{Host: "London", Collection: "E"}, 1, nil, time.Now())

	// Wrong host in transform target.
	if err := s.HandleEventEnvelope(ctx, mkEnv("Paris.X", ev)); err == nil {
		t.Error("foreign transform target accepted")
	}
	// Unknown local collection.
	if err := s.HandleEventEnvelope(ctx, mkEnv("Hamilton.Nope", ev)); err == nil {
		t.Error("unknown collection transform accepted")
	}
	// Malformed target.
	if err := s.HandleEventEnvelope(ctx, mkEnv("nodot", ev)); err == nil {
		t.Error("malformed transform target accepted")
	}
	// Valid transform works and notifies local subscribers.
	sink := NewMemoryNotifier()
	s.RegisterNotifier("w", sink)
	if _, err := s.Subscribe("w", profile.MustParse(`collection = "Hamilton.D"`)); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleEventEnvelope(ctx, mkEnv("Hamilton.D", ev)); err != nil {
		t.Fatal(err)
	}
	drainService(t, s)
	if sink.Len() != 1 {
		t.Fatalf("notifications = %d", sink.Len())
	}
	if got := s.Stats().Transforms; got != 1 {
		t.Errorf("transforms = %d", got)
	}

	// A cyclic transform (event already carries Hamilton.D) is refused
	// silently — designed behaviour, not an error.
	cyc, err := ev.Transformed(event.QName{Host: "Hamilton", Collection: "D"})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().CycleRefusals
	if err := s.HandleEventEnvelope(ctx, mkEnv("Hamilton.D", cyc)); err != nil {
		t.Fatalf("cycle refusal surfaced as error: %v", err)
	}
	if s.Stats().CycleRefusals != before+1 {
		t.Error("cycle refusal not counted")
	}
}

// A refused forward whose sub-collection names a host other than its
// sender gets one inline cancel and no destination mailbox: a host name
// read off the wire must not leave a durable mailbox that is retried, and
// counted as pending, for as long as the name fails to resolve.
func TestRefusedForwardFromAnotherHostParksNothing(t *testing.T) {
	s, tr, store := newRoutedService(t)
	_, _ = store.Add(collection.Config{Name: "D", Public: true})
	paris := listenPeer(t, tr, "addr:Paris")
	for _, host := range []string{"Nowhere", "Paris"} {
		ev := event.New("e-"+host, event.TypeCollectionRebuilt, event.QName{Host: host, Collection: "X"}, 1, nil, time.Now())
		raw, err := ev.MarshalXMLBytes()
		if err != nil {
			t.Fatal(err)
		}
		env := protocol.MustEnvelope("London", protocol.MsgEvent,
			&protocol.EventPayload{TransformTo: "Hamilton.D", Event: protocol.Wrap(raw)})
		if err := s.HandleEventEnvelope(context.Background(), env); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().CycleRefusals; got != 2 {
		t.Errorf("refusals counted = %d, want 2", got)
	}
	for _, mb := range s.Delivery().ExportMailboxes() {
		t.Errorf("mailbox %s left behind holding %d entries", mb.Client, len(mb.Entries))
	}
	if got := len(paris.byType(protocol.MsgCancelProfile)); got != 1 {
		t.Errorf("Paris received %d cancels, want 1", got)
	}
}

func TestAuxForwardCycleGuardAtSender(t *testing.T) {
	s, tr, _ := newRoutedService(t)
	london := listenPeer(t, tr, "addr:London")
	// Install an aux profile at Hamilton watching Hamilton.X on behalf of
	// London.S (so Hamilton is the sub-collection's server here).
	aux := profile.NewAuxiliary("aux:London.S>Hamilton.X",
		event.QName{Host: "London", Collection: "S"},
		event.QName{Host: "Hamilton", Collection: "X"})
	raw, _ := aux.MarshalXMLBytes()
	env := protocol.MustEnvelope("London", protocol.MsgForwardProfile,
		&protocol.ForwardProfile{Profile: protocol.Wrap(raw)})
	if err := s.HandleForwardProfile(env); err != nil {
		t.Fatal(err)
	}

	// An event about Hamilton.X whose chain ALREADY contains London.S must
	// not be forwarded (sender-side cycle guard).
	ev := event.New("e1", event.TypeCollectionRebuilt, event.QName{Host: "London", Collection: "S"}, 1, nil, time.Now())
	looped, err := ev.Transformed(event.QName{Host: "Hamilton", Collection: "X"})
	if err != nil {
		t.Fatal(err)
	}
	s.forwardPerAuxProfiles(context.Background(), looped)
	if got := len(london.byType(protocol.MsgEvent)); got != 0 {
		t.Errorf("cyclic event forwarded %d times", got)
	}
	if s.Stats().CycleRefusals == 0 {
		t.Error("sender-side refusal not counted")
	}

	// A clean event IS forwarded with the transform target set.
	clean := event.New("e2", event.TypeCollectionRebuilt, event.QName{Host: "Hamilton", Collection: "X"}, 1, nil, time.Now())
	s.forwardPerAuxProfiles(context.Background(), clean)
	fwd := london.byType(protocol.MsgEvent)
	if len(fwd) != 1 {
		t.Fatalf("forwards = %d", len(fwd))
	}
	var payload protocol.EventPayload
	if err := protocol.Decode(fwd[0], protocol.MsgEvent, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.TransformTo != "London.S" {
		t.Errorf("transform target = %q", payload.TransformTo)
	}
}

func TestSendOrQueueFallsBackToRetry(t *testing.T) {
	s, tr, _ := newRoutedService(t)
	ctx := context.Background()
	// Paris resolves but is not listening.
	s.sendOrQueue(ctx, forwardOp(protocol.MsgCancelProfile, "aux:Hamilton.D>Paris.X", nil))
	if got := s.PendingForwards(); got != 1 {
		t.Fatalf("parked = %d", got)
	}
	if s.Stats().ForwardingFailures != 1 {
		t.Errorf("failures = %d", s.Stats().ForwardingFailures)
	}
	// Paris comes up; resuming delivers.
	paris := listenPeer(t, tr, "addr:Paris")
	s.ResumeForwards()
	drainService(t, s)
	if len(paris.byType(protocol.MsgCancelProfile)) != 1 {
		t.Error("parked envelope never arrived")
	}
	if got := s.PendingForwards(); got != 0 {
		t.Errorf("parked after resume = %d", got)
	}
	// An unresolvable destination parks too.
	s.sendOrQueue(ctx, forwardOp(protocol.MsgCancelProfile, "aux:Hamilton.D>Atlantis.X", nil))
	if got := s.PendingForwards(); got != 1 {
		t.Errorf("unresolvable not parked: %d", got)
	}
}

func TestSendToServerWithoutResolver(t *testing.T) {
	tr := transport.NewMemory()
	s, err := New(Config{ServerName: "X", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	env := protocol.MustEnvelope("X", protocol.MsgPing, &protocol.Ping{})
	if err := s.sendToServer(context.Background(), "Y", env); err == nil {
		t.Error("send without resolver succeeded")
	}
}

func TestRemoteNotifierDelivers(t *testing.T) {
	tr := transport.NewMemory()
	client := listenPeer(t, tr, "addr:client")
	n := NewRemoteNotifier("Hamilton", "addr:client", tr)
	ev := event.New("e1", event.TypeDocumentsAdded, event.QName{Host: "H", Collection: "C"}, 1,
		[]event.DocRef{{ID: "d1"}}, time.Now())
	n.Notify(Notification{Client: "carol", ProfileID: "p1", Event: ev})
	got := client.byType(protocol.MsgNotify)
	if len(got) != 1 {
		t.Fatalf("notify deliveries = %d", len(got))
	}
	var payload protocol.Notify
	if err := protocol.Decode(got[0], protocol.MsgNotify, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Client != "carol" || payload.ProfileID != "p1" {
		t.Errorf("payload = %+v", payload)
	}
	back, err := event.UnmarshalXMLBytes(payload.Event.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != "e1" || len(back.Docs) != 1 {
		t.Errorf("event round trip = %+v", back)
	}
}

func TestPublishBuildReportsFilterTime(t *testing.T) {
	s, _, store := newRoutedService(t)
	_, _ = store.Add(collection.Config{Name: "D", Public: true})
	sink := NewMemoryNotifier()
	s.RegisterNotifier("u", sink)
	for i := 0; i < 50; i++ {
		if _, err := s.Subscribe("u", profile.MustParse(fmt.Sprintf(`dc.Creator = "A%d"`, i))); err != nil {
			t.Fatal(err)
		}
	}
	coll, _ := store.Get("D")
	docs := make([]*collection.Document, 20)
	for i := range docs {
		docs[i] = &collection.Document{ID: fmt.Sprintf("d%d", i),
			Metadata: map[string][]string{"dc.Creator": {fmt.Sprintf("A%d", i)}}}
	}
	res, err := coll.Build(docs, time.Now(), func() string { return protocol.NewID("H") })
	if err != nil {
		t.Fatal(err)
	}
	ft, err := s.PublishBuild(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	drainService(t, s)
	if ft <= 0 {
		t.Error("filter time not measured")
	}
	if st := s.Stats(); st.FilterTime < ft {
		t.Errorf("cumulative filter time %v < reported %v", st.FilterTime, ft)
	}
	if sink.Len() != 20 {
		t.Errorf("notifications = %d, want 20", sink.Len())
	}
}

func TestHandleEventEnvelopeMalformed(t *testing.T) {
	s, _, _ := newRoutedService(t)
	ctx := context.Background()
	// Wrong type.
	bad := protocol.MustEnvelope("X", protocol.MsgPing, &protocol.Ping{})
	if err := s.HandleEventEnvelope(ctx, bad); !errors.Is(err, protocol.ErrTypeMismatch) {
		t.Errorf("err = %v", err)
	}
	// Undecodable event body.
	env := protocol.MustEnvelope("X", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap([]byte("<junk/>"))})
	if err := s.HandleEventEnvelope(ctx, env); err == nil {
		t.Error("junk event accepted")
	}
}
