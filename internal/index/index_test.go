package index

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func corpus() []Doc {
	return []Doc{
		{ID: "d1", Fields: map[string][]string{"dc.Title": {"Music of New Zealand"}, "dc.Creator": {"Smith"}},
			Text: "traditional music from new zealand and the pacific islands"},
		{ID: "d2", Fields: map[string][]string{"dc.Title": {"Pacific Birds"}, "dc.Creator": {"Jones"}},
			Text: "a survey of birds across the pacific region"},
		{ID: "d3", Fields: map[string][]string{"dc.Title": {"Digital Libraries"}, "dc.Creator": {"Smith"}},
			Text: "digital libraries provide search and browse access to collections"},
		{ID: "d4", Fields: map[string][]string{"dc.Title": {"music theory"}, "dc.Creator": {"Brown"}},
			Text: "an introduction to music theory and harmony"},
		{ID: "d5", Fields: map[string][]string{"dc.Creator": {"Ngata"}},
			Text: "waiata collections of the maori people of new zealand"},
	}
}

func build(t *testing.T) *Index {
	t.Helper()
	ix := New()
	ix.Build(corpus(), nil)
	return ix
}

func ids(hits []Hit) []string {
	out := make([]string, 0, len(hits))
	for _, h := range hits {
		out = append(out, h.DocID)
	}
	return out
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! The 2nd e-mail: foo_bar")
	want := []string{"hello", "world", "the", "2nd", "e", "mail", "foo", "bar"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if len(Tokenize("")) != 0 || len(Tokenize("  ...  ")) != 0 {
		t.Error("empty input should produce no tokens")
	}
	// Unicode letters survive and lowercase.
	if got := Tokenize("Māori WAIATA"); got[0] != "māori" || got[1] != "waiata" {
		t.Errorf("unicode tokens = %v", got)
	}
}

func TestSearchSingleTerm(t *testing.T) {
	ix := build(t)
	hits := ix.Search(Term("music"), TextField, 0)
	got := ids(hits)
	if len(got) != 2 {
		t.Fatalf("music hits = %v", got)
	}
	// Both d1 and d4 mention music; d4's text is shorter so its tf is higher.
	if got[0] != "d4" || got[1] != "d1" {
		t.Errorf("ranking = %v, want [d4 d1]", got)
	}
}

func TestSearchFieldRestricted(t *testing.T) {
	ix := build(t)
	hits := ix.Search(Term("music"), "dc.Title", 0)
	if len(hits) != 2 {
		t.Fatalf("title hits = %v", ids(hits))
	}
	hits = ix.Search(Term("smith"), "dc.Creator", 0)
	if len(hits) != 2 {
		t.Fatalf("creator hits = %v", ids(hits))
	}
	if hits := ix.Search(Term("smith"), "dc.NoSuchField", 0); len(hits) != 0 {
		t.Errorf("unknown field produced hits: %v", ids(hits))
	}
}

func TestSearchBoolean(t *testing.T) {
	ix := build(t)
	and := And(Term("new"), Term("zealand"), Term("music"))
	if got := ids(ix.Search(and, TextField, 0)); len(got) != 1 || got[0] != "d1" {
		t.Errorf("AND hits = %v, want [d1]", got)
	}
	or := Or(Term("birds"), Term("harmony"))
	if got := ids(ix.Search(or, TextField, 0)); len(got) != 2 {
		t.Errorf("OR hits = %v", got)
	}
	andNot := And(Term("pacific"), Not(Term("birds")))
	if got := ids(ix.Search(andNot, TextField, 0)); len(got) != 1 || got[0] != "d1" {
		t.Errorf("AND NOT hits = %v, want [d1]", got)
	}
}

func TestSearchLimitAndDeterminism(t *testing.T) {
	ix := build(t)
	q := Or(Term("the"), Term("of"))
	all := ids(ix.Search(q, TextField, 0))
	if len(all) < 3 {
		t.Fatalf("common terms hit %v", all)
	}
	limited := ids(ix.Search(q, TextField, 2))
	if len(limited) != 2 {
		t.Fatalf("limit ignored: %v", limited)
	}
	// Re-running yields the identical order.
	again := ids(ix.Search(q, TextField, 0))
	if strings.Join(all, ",") != strings.Join(again, ",") {
		t.Errorf("non-deterministic ordering: %v vs %v", all, again)
	}
}

func TestRebuildReplaces(t *testing.T) {
	ix := build(t)
	ix.Build([]Doc{{ID: "x1", Text: "entirely new corpus"}}, nil)
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after rebuild", ix.Len())
	}
	if hits := ix.Search(Term("music"), TextField, 0); len(hits) != 0 {
		t.Errorf("stale hits after rebuild: %v", ids(hits))
	}
	if hits := ix.Search(Term("corpus"), TextField, 0); len(hits) != 1 || hits[0].DocID != "x1" {
		t.Errorf("new doc not searchable: %v", ids(hits))
	}
}

func TestBuildSelectedFields(t *testing.T) {
	ix := New()
	ix.Build(corpus(), []string{"dc.Title"})
	if hits := ix.Search(Term("smith"), "dc.Creator", 0); len(hits) != 0 {
		t.Errorf("unindexed field searchable: %v", ids(hits))
	}
	if hits := ix.Search(Term("music"), "dc.Title", 0); len(hits) != 2 {
		t.Errorf("selected field not searchable: %v", ids(hits))
	}
	// Full text is always available.
	if hits := ix.Search(Term("harmony"), TextField, 0); len(hits) != 1 {
		t.Errorf("text field missing: %v", ids(hits))
	}
}

func TestMatchDoc(t *testing.T) {
	d := Doc{
		ID:     "d9",
		Fields: map[string][]string{"dc.Title": {"Whale Songs"}},
		Text:   "recordings of humpback whale songs in the south pacific",
	}
	cases := []struct {
		query string
		field string
		want  bool
	}{
		{"whale AND songs", "", true},
		{"whale AND penguins", "", false},
		{"penguins OR pacific", "", true},
		{"NOT penguins", "", true},
		{"whale", "dc.Title", true},
		{"humpback", "dc.Title", false},
		{"humpback", TextField, true},
	}
	for _, c := range cases {
		q, err := ParseQuery(c.query)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", c.query, err)
		}
		if got := MatchDoc(q, d, c.field); got != c.want {
			t.Errorf("MatchDoc(%q, field=%q) = %v, want %v", c.query, c.field, got, c.want)
		}
	}
	if MatchDoc(nil, d, "") {
		t.Error("nil query matched")
	}
}

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"music", "music"},
		{"new zealand", "new AND zealand"},
		{"a AND b", "a AND b"},
		{"a OR b AND c", "a OR (b AND c)"},
		{"(a OR b) AND c", "(a OR b) AND c"},
		{"NOT a", "NOT a"},
		{"a AND NOT (b OR c)", "a AND (NOT (b OR c))"},
		{"and OR or", ""}, // operators as terms: error
	}
	for _, c := range cases {
		q, err := ParseQuery(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseQuery(%q) succeeded: %v", c.in, q)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", c.in, err)
			continue
		}
		if q.String() != c.want {
			t.Errorf("ParseQuery(%q).String() = %q, want %q", c.in, q.String(), c.want)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, bad := range []string{"", "(", "(a", "a)", "a AND", "NOT", "AND a", "( )"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

// Property: parse → render → parse is a fixed point.
func TestParseRenderFixedPoint(t *testing.T) {
	seeds := []string{
		"music", "a AND b AND c", "a OR b OR c", "NOT x",
		"(a OR b) AND (c OR d)", "a AND NOT b", "x y z",
	}
	for _, s := range seeds {
		q1, err := ParseQuery(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		r1 := q1.String()
		q2, err := ParseQuery(r1)
		if err != nil {
			t.Fatalf("reparse %q: %v", r1, err)
		}
		if q2.String() != r1 {
			t.Errorf("not a fixed point: %q -> %q -> %q", s, r1, q2.String())
		}
	}
}

// Property: a document containing all tokens of a conjunctive query always
// matches via MatchDoc and is always found via Search.
func TestSearchMatchDocAgreement(t *testing.T) {
	f := func(words []string) bool {
		// Build a doc from the words plus noise.
		kept := make([]string, 0, len(words))
		for _, w := range words {
			toks := Tokenize(w)
			kept = append(kept, toks...)
			if len(kept) >= 4 {
				break
			}
		}
		if len(kept) == 0 {
			return true
		}
		text := strings.Join(kept, " ") + " filler words here"
		d := Doc{ID: "p1", Text: text}
		ix := New()
		ix.Build([]Doc{d}, nil)
		q := And(func() []*Query {
			qs := make([]*Query, 0, len(kept))
			for _, k := range kept {
				qs = append(qs, Term(k))
			}
			return qs
		}()...)
		inSearch := len(ix.Search(q, TextField, 0)) == 1
		inMatch := MatchDoc(q, d, TextField)
		return inSearch && inMatch
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifier(t *testing.T) {
	c := BuildClassifier(corpus(), "dc.Title")
	if c.Field != "dc.Title" {
		t.Errorf("field = %q", c.Field)
	}
	labels := make([]string, 0, len(c.Buckets))
	for _, b := range c.Buckets {
		labels = append(labels, b.Label)
	}
	// d5 has no title -> "#"; titles: Music, Pacific, Digital, music.
	want := []string{"#", "D", "M", "P"}
	if strings.Join(labels, ",") != strings.Join(want, ",") {
		t.Errorf("labels = %v, want %v", labels, want)
	}
	for _, b := range c.Buckets {
		if b.Label == "M" && len(b.DocIDs) != 2 {
			t.Errorf("M bucket = %v", b.DocIDs)
		}
	}
	if s := c.String(); !strings.Contains(s, "4 buckets") {
		t.Errorf("String = %q", s)
	}
}

func TestClassifierEmptyValues(t *testing.T) {
	docs := []Doc{
		{ID: "a", Fields: map[string][]string{"f": {"  "}}},
		{ID: "b", Fields: map[string][]string{"f": {""}}},
		{ID: "c"},
	}
	c := BuildClassifier(docs, "f")
	if len(c.Buckets) != 1 || c.Buckets[0].Label != "#" {
		t.Fatalf("buckets = %+v", c.Buckets)
	}
	if len(c.Buckets[0].DocIDs) != 3 {
		t.Errorf("# bucket = %v", c.Buckets[0].DocIDs)
	}
}

func TestConcurrentSearch(t *testing.T) {
	ix := build(t)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				ix.Search(Term("music"), TextField, 0)
			}
			done <- true
		}()
	}
	// Concurrent rebuilds.
	go func() {
		for i := 0; i < 20; i++ {
			ix.Build(corpus(), nil)
		}
		done <- true
	}()
	for i := 0; i < 9; i++ {
		<-done
	}
}

func BenchmarkIndexBuild1k(b *testing.B) {
	docs := syntheticDocs(1000)
	ix := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Build(docs, nil)
	}
}

func BenchmarkSearchTerm(b *testing.B) {
	ix := New()
	ix.Build(syntheticDocs(5000), nil)
	q := Term("word7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, TextField, 10)
	}
}

func syntheticDocs(n int) []Doc {
	docs := make([]Doc, 0, n)
	for i := 0; i < n; i++ {
		docs = append(docs, Doc{
			ID: fmt.Sprintf("doc-%d", i),
			Fields: map[string][]string{
				"dc.Title": {fmt.Sprintf("title word%d alpha", i%13)},
			},
			Text: fmt.Sprintf("body word%d word%d common text here", i%13, i%7),
		})
	}
	return docs
}
