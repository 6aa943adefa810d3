package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

func newLocalService(t *testing.T) *Service {
	t.Helper()
	tr := transport.NewMemory()
	s, err := New(Config{
		ServerName: "Hamilton",
		ServerAddr: "addr:Hamilton",
		Transport:  tr,
		Resolver:   StaticResolver{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildAndPublish(t *testing.T, s *Service, store *collection.Store, name string, docs []*collection.Document) *collection.BuildResult {
	t.Helper()
	coll, err := store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	res, err := coll.Build(docs, time.Now(), func() string {
		n++
		return name + "-ev-" + time.Now().Format("150405.000000000") + "-" + strings.Repeat("x", n)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PublishBuild(context.Background(), res); err != nil {
		t.Fatal(err)
	}
	drainService(t, s)
	return res
}

// drainService settles the asynchronous delivery pipeline so tests can
// assert on notifier contents deterministically.
func drainService(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.DrainDeliveries(ctx); err != nil {
		t.Fatalf("drain deliveries: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	tr := transport.NewMemory()
	if _, err := New(Config{Transport: tr}); err == nil {
		t.Error("missing name accepted")
	}
	if _, err := New(Config{ServerName: "X"}); err == nil {
		t.Error("missing transport accepted")
	}
}

func TestSubscribeNotifyUnsubscribe(t *testing.T) {
	s := newLocalService(t)
	sink := NewMemoryNotifier()
	s.RegisterNotifier("alice", sink)

	id, err := s.Subscribe("alice", profile.MustParse(`collection = "Hamilton.D" AND dc.Creator = "Smith"`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ProfilesOf("alice"); len(got) != 1 || got[0] != id {
		t.Errorf("ProfilesOf = %v", got)
	}

	store := collection.NewStore("Hamilton")
	_, _ = store.Add(collection.Config{Name: "D", Public: true})
	buildAndPublish(t, s, store, "D", []*collection.Document{
		{ID: "d1", Metadata: map[string][]string{"dc.Creator": {"Smith"}}},
		{ID: "d2", Metadata: map[string][]string{"dc.Creator": {"Jones"}}},
	})

	if sink.Len() != 1 {
		t.Fatalf("notifications = %d, want 1", sink.Len())
	}
	n := sink.All()[0]
	if n.Client != "alice" || n.ProfileID != id {
		t.Errorf("notification = %+v", n)
	}
	if len(n.DocIDs) != 1 || n.DocIDs[0] != "d1" {
		t.Errorf("doc ids = %v", n.DocIDs)
	}
	if n.Event.Type != event.TypeCollectionBuilt {
		t.Errorf("event type = %v", n.Event.Type)
	}

	// Unsubscribe: subsequent builds do not notify.
	if err := s.Unsubscribe("alice", id); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	buildAndPublish(t, s, store, "D", []*collection.Document{
		{ID: "d3", Metadata: map[string][]string{"dc.Creator": {"Smith"}}},
	})
	if sink.Len() != 0 {
		t.Errorf("notified after unsubscribe: %+v", sink.All())
	}
}

func TestUnsubscribeOwnership(t *testing.T) {
	s := newLocalService(t)
	id, _ := s.Subscribe("alice", profile.MustParse(`collection = "X.Y"`))
	if err := s.Unsubscribe("mallory", id); err == nil {
		t.Error("foreign unsubscribe accepted")
	}
	if err := s.Unsubscribe("alice", "no-such"); err == nil {
		t.Error("unknown profile unsubscribe accepted")
	}
	if err := s.Unsubscribe("alice", id); err != nil {
		t.Errorf("own unsubscribe failed: %v", err)
	}
}

func TestSubscribeQueryAndWatch(t *testing.T) {
	s := newLocalService(t)
	sink := NewMemoryNotifier()
	s.RegisterNotifier("bob", sink)
	coll := event.QName{Host: "Hamilton", Collection: "D"}

	qid, err := s.SubscribeQuery("bob", coll, "", "whale AND songs")
	if err != nil {
		t.Fatal(err)
	}
	wid, err := s.WatchDocuments("bob", coll, []string{"d9"})
	if err != nil {
		t.Fatal(err)
	}
	if s.UserProfileCount() != 2 {
		t.Fatalf("profiles = %d", s.UserProfileCount())
	}

	store := collection.NewStore("Hamilton")
	_, _ = store.Add(collection.Config{Name: "D", Public: true})
	buildAndPublish(t, s, store, "D", []*collection.Document{
		{ID: "d1", Content: "humpback whale songs at sea"},
		{ID: "d9", Content: "unrelated content"},
	})

	byProfile := map[string]int{}
	for _, n := range sink.All() {
		byProfile[n.ProfileID]++
	}
	if byProfile[qid] != 1 {
		t.Errorf("query profile notifications = %d", byProfile[qid])
	}
	if byProfile[wid] != 1 {
		t.Errorf("watch profile notifications = %d", byProfile[wid])
	}

	if _, err := s.SubscribeQuery("bob", coll, "", "((("); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := s.WatchDocuments("bob", coll, nil); err == nil {
		t.Error("empty watch accepted")
	}
}

func TestDuplicateEventSuppressed(t *testing.T) {
	s := newLocalService(t)
	sink := NewMemoryNotifier()
	s.RegisterNotifier("alice", sink)
	_, _ = s.Subscribe("alice", profile.MustParse(`collection = "Hamilton.D"`))

	ev := event.New("fixed-id", event.TypeCollectionRebuilt,
		event.QName{Host: "Hamilton", Collection: "D"}, 2, nil, time.Now())
	raw, _ := ev.MarshalXMLBytes()
	env := protocol.MustEnvelope("gds-node", protocol.MsgEvent, &protocol.EventPayload{Event: protocol.Wrap(raw)})

	for i := 0; i < 3; i++ {
		if err := s.HandleEventEnvelope(context.Background(), env); err != nil {
			t.Fatal(err)
		}
	}
	drainService(t, s)
	if sink.Len() != 1 {
		t.Fatalf("notifications = %d, want 1 (dedup)", sink.Len())
	}
	if st := s.Stats(); st.DuplicatesDropped != 2 {
		t.Errorf("duplicates dropped = %d", st.DuplicatesDropped)
	}
}

// TestOfflineClientParksAndDrainsOnRegister covers the delivery pipeline's
// reconnect semantics end to end through the service: notifications matched
// while a client has no registered notifier park in its mailbox and drain
// the moment the client registers one.
func TestOfflineClientParksAndDrainsOnRegister(t *testing.T) {
	s := newLocalService(t)
	defer s.Close()
	_, _ = s.Subscribe("ghost", profile.MustParse(`collection = "Hamilton.D"`))
	store := collection.NewStore("Hamilton")
	_, _ = store.Add(collection.Config{Name: "D", Public: true})
	buildAndPublish(t, s, store, "D", []*collection.Document{{ID: "d1"}})
	// The notification is enqueued (counted), not lost and not delivered.
	if st := s.Stats(); st.Notifications == 0 {
		t.Error("offline match not enqueued")
	}
	if got := s.Delivery().Pending("ghost"); got == 0 {
		t.Fatal("offline notification not parked in mailbox")
	}
	// Reconnect: registering the notifier drains the mailbox.
	sink := NewMemoryNotifier()
	s.RegisterNotifier("ghost", sink)
	drainService(t, s)
	if sink.Len() == 0 {
		t.Fatal("parked notification not drained on register")
	}
	if got := s.Delivery().Pending("ghost"); got != 0 {
		t.Errorf("pending after drain = %d", got)
	}
}

func TestHandleForwardProfileValidation(t *testing.T) {
	s := newLocalService(t) // named Hamilton
	// Aux profile watching a collection NOT on this server is refused.
	p := profile.NewAuxiliary("aux:X.S>London.E",
		event.QName{Host: "X", Collection: "S"},
		event.QName{Host: "London", Collection: "E"})
	raw, _ := p.MarshalXMLBytes()
	env := protocol.MustEnvelope("X", protocol.MsgForwardProfile, &protocol.ForwardProfile{Profile: protocol.Wrap(raw)})
	if err := s.HandleForwardProfile(env); err == nil {
		t.Error("aux profile for foreign host accepted")
	}
	// Correct target installs.
	p2 := profile.NewAuxiliary("aux:X.S>Hamilton.E",
		event.QName{Host: "X", Collection: "S"},
		event.QName{Host: "Hamilton", Collection: "E"})
	raw2, _ := p2.MarshalXMLBytes()
	env2 := protocol.MustEnvelope("X", protocol.MsgForwardProfile, &protocol.ForwardProfile{Profile: protocol.Wrap(raw2)})
	if err := s.HandleForwardProfile(env2); err != nil {
		t.Fatal(err)
	}
	if s.AuxProfileCount() != 1 {
		t.Errorf("aux count = %d", s.AuxProfileCount())
	}
	// A user profile shipped as forward-profile is refused.
	up := profile.NewUser("u1", "alice", "X", profile.MustParse(`collection = "Hamilton.E"`))
	rawU, _ := up.MarshalXMLBytes()
	envU := protocol.MustEnvelope("X", protocol.MsgForwardProfile, &protocol.ForwardProfile{Profile: protocol.Wrap(rawU)})
	if err := s.HandleForwardProfile(envU); err == nil {
		t.Error("user profile accepted as aux")
	}
	// Cancel removes; cancelling twice is harmless.
	cancel := protocol.MustEnvelope("X", protocol.MsgCancelProfile, &protocol.CancelProfile{ProfileID: p2.ID})
	if err := s.HandleCancelProfile(cancel); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleCancelProfile(cancel); err != nil {
		t.Fatal(err)
	}
	if s.AuxProfileCount() != 0 {
		t.Errorf("aux count after cancel = %d", s.AuxProfileCount())
	}
}

func TestMemoryNotifierWatch(t *testing.T) {
	m := NewMemoryNotifier()
	ch := m.Watch()
	m.Notify(Notification{Client: "c", ProfileID: "p"})
	select {
	case n := <-ch:
		if n.ProfileID != "p" {
			t.Errorf("got %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("watch channel empty")
	}
}

func TestStaticResolver(t *testing.T) {
	r := StaticResolver{"A": "addr:A"}
	if addr, err := r.Resolve(context.Background(), "A"); err != nil || addr != "addr:A" {
		t.Errorf("Resolve(A) = %q, %v", addr, err)
	}
	if _, err := r.Resolve(context.Background(), "B"); err == nil {
		t.Error("unknown name resolved")
	}
}
