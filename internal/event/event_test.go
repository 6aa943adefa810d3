package event

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleEvent() *Event {
	return New("london-1", TypeCollectionRebuilt, QName{Host: "London", Collection: "E"}, 3,
		[]DocRef{
			{ID: "d1", Metadata: map[string][]string{"dc.Title": {"A Study"}, "dc.Creator": {"Smith", "Jones"}}, Snippet: "..."},
			{ID: "d2", Metadata: map[string][]string{"dc.Title": {"Another"}}},
		},
		time.Date(2005, 6, 1, 12, 0, 0, 0, time.UTC))
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{
		TypeCollectionBuilt, TypeCollectionRebuilt, TypeCollectionRemoved,
		TypeDocumentsAdded, TypeDocumentsChanged, TypeDocumentsRemoved,
	} {
		got, err := ParseType(typ.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", typ.String(), err)
		}
		if got != typ {
			t.Errorf("round trip %v -> %v", typ, got)
		}
	}
	if _, err := ParseType("nonsense"); err == nil {
		t.Error("ParseType accepted nonsense")
	}
	if s := Type(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown type string = %q", s)
	}
}

func TestQName(t *testing.T) {
	q, err := ParseQName("Hamilton.D")
	if err != nil {
		t.Fatal(err)
	}
	if q.Host != "Hamilton" || q.Collection != "D" {
		t.Errorf("parsed %+v", q)
	}
	if q.String() != "Hamilton.D" {
		t.Errorf("String = %q", q.String())
	}
	// Collection part may contain dots.
	q2, err := ParseQName("London.F.G")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Collection != "F.G" {
		t.Errorf("nested collection = %q", q2.Collection)
	}
	for _, bad := range []string{"", "NoDot", ".leading", "trailing."} {
		if _, err := ParseQName(bad); err == nil {
			t.Errorf("ParseQName(%q) accepted", bad)
		}
	}
	if !(QName{}).IsZero() {
		t.Error("zero QName not IsZero")
	}
}

func TestEventXMLRoundTrip(t *testing.T) {
	e := sampleEvent()
	raw, err := e.MarshalXMLBytes()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalXMLBytes(raw)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.ID != e.ID || got.Type != e.Type || got.Collection != e.Collection {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Docs) != 2 {
		t.Fatalf("docs = %d", len(got.Docs))
	}
	if got.Docs[0].Metadata["dc.Creator"][1] != "Jones" {
		t.Errorf("metadata lost: %+v", got.Docs[0].Metadata)
	}
	if !got.OccurredAt.Equal(e.OccurredAt) {
		t.Errorf("time: got %v want %v", got.OccurredAt, e.OccurredAt)
	}
	if len(got.Chain) != 1 || got.Chain[0] != e.Collection {
		t.Errorf("chain = %+v", got.Chain)
	}
}

func TestTransform(t *testing.T) {
	e := sampleEvent()
	super := QName{Host: "Hamilton", Collection: "D"}
	te, err := e.Transformed(super)
	if err != nil {
		t.Fatalf("Transformed: %v", err)
	}
	if te.Collection != super {
		t.Errorf("collection = %v", te.Collection)
	}
	if te.Origin != e.Origin {
		t.Errorf("origin should be preserved: %v", te.Origin)
	}
	if te.ID == e.ID {
		t.Error("transformed event must have a distinct ID")
	}
	if len(te.Chain) != 2 || te.Chain[1] != super {
		t.Errorf("chain = %+v", te.Chain)
	}
	// Original untouched.
	if len(e.Chain) != 1 {
		t.Errorf("original chain mutated: %+v", e.Chain)
	}
}

func TestTransformCycleRefused(t *testing.T) {
	e := sampleEvent()
	a := QName{Host: "Hamilton", Collection: "D"}
	te, err := e.Transformed(a)
	if err != nil {
		t.Fatal(err)
	}
	// A cyclic configuration: London.E is (transitively) a super-collection
	// of Hamilton.D too. The second transform back to an already-seen name
	// must be refused.
	_, err = te.Transformed(QName{Host: "London", Collection: "E"})
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CycleError", err)
	}
	if ce.Repeat != (QName{Host: "London", Collection: "E"}) {
		t.Errorf("repeat = %v", ce.Repeat)
	}
	if !strings.Contains(ce.Error(), "London.E") {
		t.Errorf("error text: %s", ce.Error())
	}
}

func TestAttrs(t *testing.T) {
	e := sampleEvent()
	a := e.Attrs()
	if a["collection"] != "London.E" || a["host"] != "London" {
		t.Errorf("attrs = %+v", a)
	}
	if a["event.type"] != "collection-rebuilt" {
		t.Errorf("event.type = %q", a["event.type"])
	}
}

func TestDedupBasics(t *testing.T) {
	d := NewDedup(4)
	if d.Observe("a") {
		t.Error("first observe reported duplicate")
	}
	if !d.Observe("a") {
		t.Error("second observe not duplicate")
	}
	if d.Hits() != 1 {
		t.Errorf("hits = %d", d.Hits())
	}
	if !d.Seen("a") || d.Seen("b") {
		t.Error("Seen wrong")
	}
}

func TestDedupEviction(t *testing.T) {
	d := NewDedup(3)
	for _, id := range []string{"a", "b", "c", "d"} {
		d.Observe(id)
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d, want 3", d.Len())
	}
	if d.Seen("a") {
		t.Error("oldest entry should have been evicted")
	}
	if !d.Seen("d") {
		t.Error("newest entry missing")
	}
	d.Reset()
	if d.Len() != 0 || d.Seen("d") {
		t.Error("reset incomplete")
	}
}

// TestDedupWindowWraps drives the ring several times round and checks that
// IDs still lists the window oldest first, that Reset empties it, and that a
// refilled window evicts in admission order again.
func TestDedupWindowWraps(t *testing.T) {
	d := NewDedup(4)
	for i := 0; i < 11; i++ {
		if d.Observe(fmt.Sprintf("id-%d", i)) {
			t.Fatalf("id-%d reported duplicate", i)
		}
	}
	if got, want := strings.Join(d.IDs(), " "), "id-7 id-8 id-9 id-10"; got != want {
		t.Fatalf("IDs = %q, want %q", got, want)
	}
	if d.Seen("id-6") || !d.Observe("id-7") {
		t.Error("window does not hold exactly the last four")
	}
	d.Reset()
	if len(d.IDs()) != 0 || d.Hits() != 0 {
		t.Fatal("reset incomplete")
	}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		d.Observe(id)
	}
	if got, want := strings.Join(d.IDs(), " "), "b c d e"; got != want {
		t.Errorf("IDs after refill = %q, want %q", got, want)
	}
}

// TestDedupFullWindowAllocs pins what the ring is for: once the window is
// full, remembering one more ID costs no allocation (the list-backed window
// allocated an element and a boxed string per ID, three live objects per
// entry for the collector to mark).
func TestDedupFullWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d := NewDedup(1024)
	ids := make([]string, 4096)
	for i := range ids {
		ids[i] = fmt.Sprintf("id-%d", i)
	}
	for _, id := range ids[:1024] {
		d.Observe(id)
	}
	i := 1024
	const ceiling = 0
	if got := testing.AllocsPerRun(2000, func() {
		d.Observe(ids[i%len(ids)])
		i++
	}); got > ceiling {
		t.Errorf("Observe on a full window: %.2f allocs/op, ceiling %d", got, ceiling)
	}
}

func TestDedupDefaultCapacity(t *testing.T) {
	d := NewDedup(0)
	for i := 0; i < DefaultDedupCapacity+10; i++ {
		d.Observe(fmt.Sprintf("id-%d", i))
	}
	if d.Len() != DefaultDedupCapacity {
		t.Errorf("len = %d, want %d", d.Len(), DefaultDedupCapacity)
	}
}

func TestDedupConcurrent(t *testing.T) {
	d := NewDedup(1024)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				d.Observe(fmt.Sprintf("g%d-%d", g, i))
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if d.Len() != 1024 {
		t.Errorf("len = %d, want 1024 (capacity)", d.Len())
	}
}

// Property: Observe returns duplicate exactly when the id was observed
// within the capacity window.
func TestDedupProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		d := NewDedup(64)
		model := make(map[string]bool)
		var window []string
		for _, raw := range ids {
			id := fmt.Sprintf("id-%d", raw)
			got := d.Observe(id)
			want := model[id]
			if got != want {
				return false
			}
			if !want {
				model[id] = true
				window = append(window, id)
				if len(window) > 64 {
					delete(model, window[0])
					window = window[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: marshal/unmarshal preserves every doc ID and chain entry.
func TestEventRoundTripProperty(t *testing.T) {
	f := func(n uint8, hops uint8) bool {
		docs := make([]DocRef, 0, int(n)%10)
		for i := 0; i < int(n)%10; i++ {
			docs = append(docs, DocRef{
				ID:       fmt.Sprintf("doc-%d", i),
				Metadata: map[string][]string{"k": {fmt.Sprintf("v%d", i)}},
			})
		}
		e := New("id-x", TypeDocumentsAdded, QName{Host: "H", Collection: "C"}, 1, docs, time.Now())
		for h := 0; h < int(hops)%5; h++ {
			var err error
			e, err = e.Transformed(QName{Host: fmt.Sprintf("H%d", h), Collection: "S"})
			if err != nil {
				return false
			}
		}
		raw, err := e.MarshalXMLBytes()
		if err != nil {
			return false
		}
		got, err := UnmarshalXMLBytes(raw)
		if err != nil {
			return false
		}
		if len(got.Docs) != len(e.Docs) || len(got.Chain) != len(e.Chain) {
			return false
		}
		for i := range e.Docs {
			if got.Docs[i].ID != e.Docs[i].ID {
				return false
			}
		}
		for i := range e.Chain {
			if got.Chain[i] != e.Chain[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
