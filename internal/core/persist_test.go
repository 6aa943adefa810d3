package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

func TestSaveLoadSubscriptions(t *testing.T) {
	s := newLocalService(t) // Hamilton
	if _, err := s.Subscribe("alice", profile.MustParse(`collection = "Hamilton.D"`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubscribeQuery("bob", event.QName{Host: "Hamilton", Collection: "D"}, "", "whale"); err != nil {
		t.Fatal(err)
	}
	// An installed auxiliary profile.
	aux := profile.NewAuxiliary("aux:X.S>Hamilton.E",
		event.QName{Host: "X", Collection: "S"},
		event.QName{Host: "Hamilton", Collection: "E"})
	rawAux, _ := aux.MarshalXMLBytes()
	env := protocol.MustEnvelope("X", protocol.MsgForwardProfile, &protocol.ForwardProfile{Profile: protocol.Wrap(rawAux)})
	if err := s.HandleForwardProfile(env); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.SaveSubscriptions(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Hamilton.D") {
		t.Error("snapshot missing profile content")
	}

	// A fresh service (restart) restores everything.
	s2 := newLocalService(t)
	n, err := s2.LoadSubscriptions(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("restored = %d, want 3", n)
	}
	if s2.UserProfileCount() != 2 || s2.AuxProfileCount() != 1 {
		t.Fatalf("restored counts: user=%d aux=%d", s2.UserProfileCount(), s2.AuxProfileCount())
	}
	if got := s2.ProfilesOf("alice"); len(got) != 1 {
		t.Errorf("alice profiles = %v", got)
	}
	// Restored profiles actually fire (after the client re-registers its
	// notifier).
	sink := NewMemoryNotifier()
	s2.RegisterNotifier("alice", sink)
	store := collection.NewStore("Hamilton")
	_, _ = store.Add(collection.Config{Name: "D", Public: true})
	buildAndPublish(t, s2, store, "D", []*collection.Document{{ID: "d1"}})
	if sink.Len() != 1 {
		t.Errorf("restored profile did not fire: %d", sink.Len())
	}
}

// TestLoadSubscriptionsReplacesDuplicateIDs covers the merge path: loading
// a snapshot into a service that already holds profiles with the same IDs
// replaces them (both user and auxiliary) instead of duplicating, and the
// replacement expression is the one that fires afterwards.
func TestLoadSubscriptionsReplacesDuplicateIDs(t *testing.T) {
	// Source service: one user profile matching Hamilton.D, one aux profile.
	src := newLocalService(t)
	userP := profile.NewUser("p-dup", "alice", "Hamilton", profile.MustParse(`collection = "Hamilton.D"`))
	if err := src.SubscribeProfile(userP); err != nil {
		t.Fatal(err)
	}
	aux := profile.NewAuxiliary("aux:X.S>Hamilton.E",
		event.QName{Host: "X", Collection: "S"},
		event.QName{Host: "Hamilton", Collection: "E"})
	rawAux, _ := aux.MarshalXMLBytes()
	env := protocol.MustEnvelope("X", protocol.MsgForwardProfile, &protocol.ForwardProfile{Profile: protocol.Wrap(rawAux)})
	if err := src.HandleForwardProfile(env); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.SaveSubscriptions(&snap); err != nil {
		t.Fatal(err)
	}

	// Destination service: the SAME IDs bound to different content.
	dst := newLocalService(t)
	stale := profile.NewUser("p-dup", "alice", "Hamilton", profile.MustParse(`collection = "Hamilton.Other"`))
	if err := dst.SubscribeProfile(stale); err != nil {
		t.Fatal(err)
	}
	staleAux := profile.NewAuxiliary("aux:X.S>Hamilton.E",
		event.QName{Host: "X", Collection: "S"},
		event.QName{Host: "Hamilton", Collection: "Stale"})
	rawStale, _ := staleAux.MarshalXMLBytes()
	envStale := protocol.MustEnvelope("X", protocol.MsgForwardProfile, &protocol.ForwardProfile{Profile: protocol.Wrap(rawStale)})
	if err := dst.HandleForwardProfile(envStale); err != nil {
		t.Fatal(err)
	}

	n, err := dst.LoadSubscriptions(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored = %d, want 2", n)
	}
	// Replaced, not duplicated.
	if dst.UserProfileCount() != 1 || dst.AuxProfileCount() != 1 {
		t.Fatalf("counts after merge: user=%d aux=%d, want 1/1", dst.UserProfileCount(), dst.AuxProfileCount())
	}
	if got := dst.ProfilesOf("alice"); len(got) != 1 || got[0] != "p-dup" {
		t.Errorf("alice profiles = %v", got)
	}
	// The loaded expression wins: Hamilton.D fires, Hamilton.Other does not.
	sink := NewMemoryNotifier()
	dst.RegisterNotifier("alice", sink)
	store := collection.NewStore("Hamilton")
	_, _ = store.Add(collection.Config{Name: "D", Public: true})
	_, _ = store.Add(collection.Config{Name: "Other", Public: true})
	buildAndPublish(t, dst, store, "Other", []*collection.Document{{ID: "o1"}})
	if sink.Len() != 0 {
		t.Errorf("stale expression still fires: %d", sink.Len())
	}
	buildAndPublish(t, dst, store, "D", []*collection.Document{{ID: "d1"}})
	if sink.Len() != 1 {
		t.Errorf("replacement expression notifications = %d, want 1", sink.Len())
	}
}

func TestLoadSubscriptionsRejectsBadInput(t *testing.T) {
	s := newLocalService(t)
	if _, err := s.LoadSubscriptions(strings.NewReader("not xml")); err == nil {
		t.Error("garbage accepted")
	}
	// An aux profile for a different host is refused.
	foreign := profile.NewAuxiliary("aux:X.S>Other.E",
		event.QName{Host: "X", Collection: "S"},
		event.QName{Host: "Other", Collection: "E"})
	raw, _ := foreign.MarshalXMLBytes()
	doc := "<Subscriptions Server=\"Hamilton\"><Profile>" + string(raw) + "</Profile></Subscriptions>"
	if _, err := s.LoadSubscriptions(strings.NewReader(doc)); err == nil {
		t.Error("foreign aux profile accepted")
	}
}

func TestSnapshotRoundTripIsStable(t *testing.T) {
	s := newLocalService(t)
	_, _ = s.Subscribe("alice", profile.MustParse(`collection = "Hamilton.D" AND doc.id in ("a", "b")`))
	var first bytes.Buffer
	if err := s.SaveSubscriptions(&first); err != nil {
		t.Fatal(err)
	}
	s2 := newLocalService(t)
	if _, err := s2.LoadSubscriptions(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := s2.SaveSubscriptions(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("snapshot not stable:\n--- first\n%s\n--- second\n%s", first.String(), second.String())
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	s := newLocalService(t)
	var buf bytes.Buffer
	if err := s.SaveSubscriptions(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := newLocalService(t)
	n, err := s2.LoadSubscriptions(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 0 {
		t.Errorf("empty round trip: n=%d err=%v", n, err)
	}
}

func TestRoutingModeValidation(t *testing.T) {
	tr := transport.NewMemory()
	s, err := New(Config{ServerName: "X", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if s.RoutingMode() != RouteBroadcast {
		t.Errorf("default mode = %v", s.RoutingMode())
	}
	if err := s.SetRoutingMode(ctx, RoutingMode(99)); err == nil {
		t.Error("bad mode accepted")
	}
	if err := s.SetRoutingMode(ctx, RouteMulticast); err != nil {
		t.Fatal(err)
	}
	if s.RoutingMode() != RouteMulticast {
		t.Error("mode not switched")
	}
}
