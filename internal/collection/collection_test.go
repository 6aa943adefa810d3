package collection

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/gsalert/gsalert/internal/event"
)

func testDocs(ids ...string) []*Document {
	docs := make([]*Document, 0, len(ids))
	for i, id := range ids {
		docs = append(docs, &Document{
			ID: id,
			Metadata: map[string][]string{
				"dc.Title":   {fmt.Sprintf("Title %s", id)},
				"dc.Creator": {fmt.Sprintf("Author%d", i%3)},
			},
			Content: fmt.Sprintf("content of %s with words music library %d", id, i),
			MIME:    "text/plain",
		})
	}
	return docs
}

func idSeq(prefix string) func() string {
	n := 0
	return func() string {
		n++
		return fmt.Sprintf("%s-%d", prefix, n)
	}
}

func mustCollection(t *testing.T, cfg Config) *Collection {
	t.Helper()
	c, err := New("Hamilton", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDocumentFingerprint(t *testing.T) {
	d1 := testDocs("a")[0]
	d2 := d1.Clone()
	if d1.Fingerprint() != d2.Fingerprint() {
		t.Error("clone has different fingerprint")
	}
	d2.Content += "!"
	if d1.Fingerprint() == d2.Fingerprint() {
		t.Error("content change not reflected")
	}
	d3 := d1.Clone()
	d3.Metadata["dc.Title"] = []string{"Other"}
	if d1.Fingerprint() == d3.Fingerprint() {
		t.Error("metadata change not reflected")
	}
	// Field order independence.
	d4 := &Document{ID: "x", Metadata: map[string][]string{"a": {"1"}, "b": {"2"}}}
	d5 := &Document{ID: "x", Metadata: map[string][]string{"b": {"2"}, "a": {"1"}}}
	if d4.Fingerprint() != d5.Fingerprint() {
		t.Error("map order changed fingerprint")
	}
}

func TestDocumentHelpers(t *testing.T) {
	d := &Document{ID: "d1", Content: strings.Repeat("x", 500)}
	if d.Title() != "d1" {
		t.Errorf("Title fallback = %q", d.Title())
	}
	d.Metadata = map[string][]string{"dc.Title": {"Real Title"}}
	if d.Title() != "Real Title" {
		t.Errorf("Title = %q", d.Title())
	}
	if got := d.Snippet(100); len([]rune(got)) != 100 {
		t.Errorf("Snippet len = %d", len([]rune(got)))
	}
	if got := d.Snippet(0); len([]rune(got)) != 200 {
		t.Errorf("default Snippet len = %d", len([]rune(got)))
	}
	short := &Document{Content: "short"}
	if short.Snippet(100) != "short" {
		t.Errorf("short snippet = %q", short.Snippet(100))
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "D", Public: true, Subs: []SubRef{{Host: "London", Name: "E"}, {Name: "F"}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []struct {
		cfg  Config
		want error
	}{
		{Config{}, ErrNoName},
		{Config{Name: "has space"}, ErrBadName},
		{Config{Name: "has.dot"}, ErrBadName},
		{Config{Name: "D", Subs: []SubRef{{Name: "E"}, {Name: "E"}}}, ErrDupSub},
		{Config{Name: "D", Subs: []SubRef{{Name: "D"}}}, ErrSelfSub},
		{Config{Name: "D", Subs: []SubRef{{Name: ""}}}, ErrBadName},
	}
	for i, c := range cases {
		if err := c.cfg.Validate(); !errors.Is(err, c.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, c.want)
		}
	}
}

func TestConfigXMLRoundTrip(t *testing.T) {
	cfg := Config{
		Name:        "D",
		Title:       "Demo Collection",
		Public:      true,
		IndexFields: []string{"dc.Title", "dc.Creator"},
		Classifiers: []string{"dc.Title"},
		Subs:        []SubRef{{Host: "London", Name: "E"}, {Name: "Local"}},
	}
	raw, err := cfg.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseConfig(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "D" || got.Title != "Demo Collection" || !got.Public {
		t.Errorf("fields: %+v", got)
	}
	if len(got.Subs) != 2 || got.Subs[0].Host != "London" {
		t.Errorf("subs: %+v", got.Subs)
	}
	if len(got.RemoteSubs()) != 1 {
		t.Errorf("remote/local split wrong")
	}
	if _, err := ParseConfig([]byte("<CollectionConfig><Name></Name></CollectionConfig>")); err == nil {
		t.Error("invalid parsed config accepted")
	}
}

func TestFirstBuildEmitsCollectionBuilt(t *testing.T) {
	c := mustCollection(t, Config{Name: "D", Public: true, IndexFields: []string{"dc.Title"}})
	now := time.Date(2005, 6, 1, 10, 0, 0, 0, time.UTC)
	res, err := c.Build(testDocs("d1", "d2", "d3"), now, idSeq("H"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || c.BuildVersion() != 1 {
		t.Errorf("version = %d", res.Version)
	}
	if len(res.Added) != 3 || len(res.Changed) != 0 || len(res.Removed) != 0 {
		t.Errorf("diff: +%v ~%v -%v", res.Added, res.Changed, res.Removed)
	}
	if len(res.Events) != 1 {
		t.Fatalf("events = %d, want 1 (summary only on first build)", len(res.Events))
	}
	ev := res.Events[0]
	if ev.Type != event.TypeCollectionBuilt {
		t.Errorf("type = %v", ev.Type)
	}
	if len(ev.Docs) != 3 {
		t.Errorf("summary docs = %d", len(ev.Docs))
	}
	if ev.Collection.String() != "Hamilton.D" {
		t.Errorf("collection = %v", ev.Collection)
	}
	if !ev.OccurredAt.Equal(now) {
		t.Errorf("occurred at %v", ev.OccurredAt)
	}
	if ev.Docs[0].Metadata["dc.Title"] == nil {
		t.Error("event docs carry no metadata")
	}
}

func TestRebuildDiffs(t *testing.T) {
	c := mustCollection(t, Config{Name: "D", Public: true})
	now := time.Now()
	if _, err := c.Build(testDocs("d1", "d2", "d3"), now, idSeq("H")); err != nil {
		t.Fatal(err)
	}
	// d1 unchanged, d2 changed, d3 removed, d4 added.
	docs := testDocs("d1", "d2", "d4")
	docs[1].Content += " updated"
	res, err := c.Build(docs, now.Add(time.Hour), idSeq("H2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || c.BuildVersion() != 2 {
		t.Errorf("rebuild version = %d, want 2 (one step per build)", res.Version)
	}
	if fmt.Sprint(res.Added) != "[d4]" || fmt.Sprint(res.Changed) != "[d2]" || fmt.Sprint(res.Removed) != "[d3]" {
		t.Fatalf("diff: +%v ~%v -%v", res.Added, res.Changed, res.Removed)
	}
	types := make(map[event.Type]*event.Event, len(res.Events))
	for _, ev := range res.Events {
		types[ev.Type] = ev
	}
	if types[event.TypeCollectionRebuilt] == nil {
		t.Error("no rebuilt summary event")
	}
	if got := types[event.TypeDocumentsAdded]; got == nil || len(got.Docs) != 1 || got.Docs[0].ID != "d4" {
		t.Errorf("added event = %+v", got)
	}
	if got := types[event.TypeDocumentsChanged]; got == nil || got.Docs[0].ID != "d2" {
		t.Errorf("changed event = %+v", got)
	}
	if got := types[event.TypeDocumentsRemoved]; got == nil || got.Docs[0].ID != "d3" {
		t.Errorf("removed event = %+v", got)
	}
	// Removed docs carry no metadata (they are gone).
	if md := types[event.TypeDocumentsRemoved].Docs[0].Metadata; md != nil {
		t.Errorf("removed doc has metadata: %v", md)
	}
	// Summary carries added+changed only.
	if n := len(types[event.TypeCollectionRebuilt].Docs); n != 2 {
		t.Errorf("summary docs = %d, want 2", n)
	}
}

func TestIdenticalRebuildEmitsOnlySummary(t *testing.T) {
	c := mustCollection(t, Config{Name: "D", Public: true})
	docs := testDocs("d1", "d2")
	_, _ = c.Build(docs, time.Now(), idSeq("a"))
	res, err := c.Build(docs, time.Now(), idSeq("b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || res.Events[0].Type != event.TypeCollectionRebuilt {
		t.Fatalf("events = %+v", res.Events)
	}
	if len(res.Events[0].Docs) != 0 {
		t.Errorf("no-change rebuild summary carries %d docs", len(res.Events[0].Docs))
	}
}

func TestBuildRejectsBadDocs(t *testing.T) {
	c := mustCollection(t, Config{Name: "D"})
	if _, err := c.Build([]*Document{{ID: ""}}, time.Now(), idSeq("x")); err == nil {
		t.Error("empty doc ID accepted")
	}
	if _, err := c.Build([]*Document{{ID: "a"}, {ID: "a"}}, time.Now(), idSeq("x")); err == nil {
		t.Error("duplicate doc ID accepted")
	}
}

func TestSearchAndClassifier(t *testing.T) {
	c := mustCollection(t, Config{
		Name: "D", Public: true,
		IndexFields: []string{"dc.Title", "dc.Creator"},
		Classifiers: []string{"dc.Title"},
	})
	_, err := c.Build(testDocs("d1", "d2", "d3"), time.Now(), idSeq("H"))
	if err != nil {
		t.Fatal(err)
	}
	hits, err := c.Search("music", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Errorf("text hits = %d", len(hits))
	}
	hits, err = c.Search("title AND d2", "dc.Title", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].DocID != "d2" {
		t.Errorf("field hits = %+v", hits)
	}
	if _, err := c.Search("((", "", 0); err == nil {
		t.Error("bad query accepted")
	}
	cl, ok := c.Classifier("dc.Title")
	if !ok || len(cl.Buckets) == 0 {
		t.Errorf("classifier missing: %v %v", cl, ok)
	}
	if _, ok := c.Classifier("dc.Nope"); ok {
		t.Error("unknown classifier present")
	}
}

func TestDocAccessAndIsolation(t *testing.T) {
	c := mustCollection(t, Config{Name: "D"})
	_, _ = c.Build(testDocs("d1"), time.Now(), idSeq("x"))
	d, ok := c.Doc("d1")
	if !ok {
		t.Fatal("doc missing")
	}
	d.Metadata["dc.Title"][0] = "MUTATED"
	d2, _ := c.Doc("d1")
	if d2.Metadata["dc.Title"][0] == "MUTATED" {
		t.Error("Doc returned shared state")
	}
	if _, ok := c.Doc("nope"); ok {
		t.Error("phantom doc")
	}
	all := c.Docs()
	if len(all) != 1 || all[0].ID != "d1" {
		t.Errorf("Docs = %v", all)
	}
}

func TestVirtualCollection(t *testing.T) {
	c := mustCollection(t, Config{Name: "C", Subs: []SubRef{{Host: "London", Name: "E"}}})
	if !c.IsVirtual() {
		t.Error("empty collection with subs should be virtual")
	}
	_, _ = c.Build(testDocs("d1"), time.Now(), idSeq("x"))
	if c.IsVirtual() {
		t.Error("collection with docs is not virtual")
	}
}

func TestSetConfig(t *testing.T) {
	c := mustCollection(t, Config{Name: "D"})
	if err := c.SetConfig(Config{Name: "Other"}); err == nil {
		t.Error("rename accepted")
	}
	if err := c.SetConfig(Config{Name: "D", Subs: []SubRef{{Host: "L", Name: "E"}}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Config().Subs; len(got) != 1 {
		t.Errorf("subs = %v", got)
	}
}

func TestStore(t *testing.T) {
	s := NewStore("Hamilton")
	if s.Host() != "Hamilton" {
		t.Errorf("host = %q", s.Host())
	}
	if _, err := s.Add(Config{Name: "D", Public: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(Config{Name: "D"}); !errors.Is(err, ErrExists) {
		t.Errorf("dup add err = %v", err)
	}
	if _, err := s.Add(Config{Name: "C", Subs: []SubRef{{Host: "London", Name: "E"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("D"); err != nil {
		t.Errorf("Get: %v", err)
	}
	if _, err := s.Get("X"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing get err = %v", err)
	}
	if all := s.All(); len(all) != 2 || all[0].Config().Name != "C" || all[1].Config().Name != "D" {
		t.Errorf("All = %v", all)
	}
	if err := s.Remove("C"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("C"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove err = %v", err)
	}
}

func TestStoreSupersOf(t *testing.T) {
	s := NewStore("Hamilton")
	_, _ = s.Add(Config{Name: "D", Subs: []SubRef{{Host: "London", Name: "E"}}})
	_, _ = s.Add(Config{Name: "C", Subs: []SubRef{{Host: "London", Name: "E"}, {Name: "D"}}})
	_, _ = s.Add(Config{Name: "X"})

	supers := s.SupersOf("London", "E")
	if len(supers) != 2 {
		t.Fatalf("supers of London.E = %d", len(supers))
	}
	if supers[0].Config().Name != "C" || supers[1].Config().Name != "D" {
		t.Errorf("supers = %s, %s", supers[0].Config().Name, supers[1].Config().Name)
	}
	// Local sub reference: D is a sub of C on the same host.
	supers = s.SupersOf("Hamilton", "D")
	if len(supers) != 1 || supers[0].Config().Name != "C" {
		t.Errorf("supers of Hamilton.D = %v", supers)
	}
	if got := s.SupersOf("Nowhere", "Z"); len(got) != 0 {
		t.Errorf("phantom supers: %v", got)
	}
}

// Property: build diff classification is a partition — every new doc is
// added or changed or unchanged, every old doc missing from the new set is
// removed, and counts are consistent.
func TestBuildDiffProperty(t *testing.T) {
	f := func(keepMask, changeMask uint8, addN uint8) bool {
		c, err := New("H", Config{Name: "P"})
		if err != nil {
			return false
		}
		base := testDocs("a", "b", "c", "d", "e", "f", "g", "h")
		if _, err := c.Build(base, time.Now(), idSeq("s")); err != nil {
			return false
		}
		var next []*Document
		kept, changed := 0, 0
		for i, d := range base {
			if keepMask&(1<<i) == 0 {
				continue
			}
			cp := d.Clone()
			if changeMask&(1<<i) != 0 {
				cp.Content += " changed"
				changed++
			}
			kept++
			next = append(next, cp)
		}
		added := int(addN % 5)
		for i := 0; i < added; i++ {
			next = append(next, testDocs(fmt.Sprintf("new%d", i))...)
		}
		res, err := c.Build(next, time.Now(), idSeq("s2"))
		if err != nil {
			return false
		}
		wantRemoved := len(base) - kept
		return len(res.Added) == added &&
			len(res.Changed) == changed &&
			len(res.Removed) == wantRemoved &&
			c.Len() == kept+added
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
