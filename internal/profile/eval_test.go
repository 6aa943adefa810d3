package profile

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/index"
)

func docCtx(fields map[string][]string, text string) *EvalContext {
	return &EvalContext{
		Attrs: map[string]string{
			"collection": "Hamilton.D",
			"host":       "Hamilton",
			"event.type": "documents-added",
			"origin":     "London.E",
		},
		Doc: &index.Doc{ID: "doc-1", Fields: fields, Text: text},
	}
}

func TestEvalOperators(t *testing.T) {
	ctx := docCtx(map[string][]string{
		"dc.Title":   {"Music of New Zealand"},
		"dc.Creator": {"Smith", "Jones"},
		"year":       {"1995"},
	}, "traditional music from new zealand")

	cases := []struct {
		expr string
		want bool
	}{
		{`collection = "Hamilton.D"`, true},
		{`collection = "hamilton.d"`, true}, // equality is case-insensitive
		{`collection = "London.E"`, false},
		{`origin = "London.E"`, true},
		{`event.type = "documents-added"`, true},
		{`dc.Creator = "Jones"`, true},
		{`dc.Creator != "Brown"`, true},
		{`dc.Creator != "Smith"`, false}, // one value equals -> != fails
		{`missing != "x"`, true},         // vacuous on absent attribute
		{`year >= 1990`, true},
		{`year < 1990`, false},
		{`year <= "1995"`, true},
		{`year > 2000`, false},
		{`dc.Title contains "zealand"`, true},
		{`dc.Title contains "australia"`, false},
		{`dc.Title startswith "music"`, true},
		{`dc.Title endswith "zealand"`, true},
		{`dc.Title matches "Music*Zealand"`, true},
		{`dc.Title matches "M?sic*"`, true},
		{`dc.Title matches "*Pacific*"`, false},
		{`doc.id in ("doc-1", "doc-9")`, true},
		{`doc.id in ("doc-9")`, false},
		{`dc.Creator in ("brown", "jones")`, true},
		{`dc.Title exists`, true},
		{`dc.Subject exists`, false},
		{`text query "traditional AND zealand"`, true},
		{`text query "whale"`, false},
		{`dc.Title query "music AND zealand"`, true},
		{`dc.Title query "traditional"`, false}, // field-restricted query
		{`NOT dc.Title contains "australia"`, true},
		{`collection = "Hamilton.D" AND dc.Creator = "Smith"`, true},
		{`collection = "X" OR dc.Creator = "Smith"`, true},
		{`collection = "X" AND dc.Creator = "Smith"`, false},
	}
	for _, c := range cases {
		e, err := Parse(c.expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.expr, err)
		}
		if got := Eval(e, ctx); got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestEvalLexicographicFallback(t *testing.T) {
	ctx := docCtx(map[string][]string{"name": {"delta"}}, "")
	if !Eval(MustParse(`name > "alpha"`), ctx) {
		t.Error("lexicographic > failed")
	}
	if Eval(MustParse(`name < "alpha"`), ctx) {
		t.Error("lexicographic < succeeded wrongly")
	}
}

func TestEvalNilAndMissingDoc(t *testing.T) {
	if Eval(nil, &EvalContext{}) {
		t.Error("nil expression matched")
	}
	// Metadata predicate with no doc in context.
	if Eval(MustParse(`dc.Title = "x"`), &EvalContext{Attrs: map[string]string{"collection": "C.X"}}) {
		t.Error("doc predicate matched without doc")
	}
	// Query predicate without doc.
	if Eval(MustParse(`text query "x"`), &EvalContext{}) {
		t.Error("query predicate matched without doc")
	}
}

func TestWildcardMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"a*", "abc", true},
		{"*c", "abc", true},
		{"a*c", "abc", true},
		{"a*c", "abxc", true},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"a??", "abc", true},
		{"*b*", "abc", true},
		{"ABC", "abc", true}, // case-insensitive
		{"a*b*c", "a-x-b-y-c", true},
		{"a*b*c", "acb", false},
		{"**a", "za", true},
	}
	for _, c := range cases {
		if got := WildcardMatch(c.pattern, c.s); got != c.want {
			t.Errorf("WildcardMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// Property: WildcardMatch("*"+s+"*", x+s+y) always holds.
func TestWildcardContainsProperty(t *testing.T) {
	f := func(prefix, mid, suffix string) bool {
		if len(mid) == 0 {
			return true
		}
		// Exclude wildcard metacharacters from the literal middle.
		for _, r := range mid {
			if r == '*' || r == '?' {
				return true
			}
		}
		return WildcardMatch("*"+mid+"*", prefix+mid+suffix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func makeEvent(collection event.QName, docs []event.DocRef) *event.Event {
	return event.New("ev-1", event.TypeDocumentsAdded, collection, 2, docs, time.Now())
}

func TestMatchEventPerDocument(t *testing.T) {
	ev := makeEvent(event.QName{Host: "Hamilton", Collection: "D"}, []event.DocRef{
		{ID: "d1", Metadata: map[string][]string{"dc.Creator": {"Smith"}}},
		{ID: "d2", Metadata: map[string][]string{"dc.Creator": {"Jones"}}},
		{ID: "d3", Metadata: map[string][]string{"dc.Creator": {"Smith"}}},
	})
	e := MustParse(`collection = "Hamilton.D" AND dc.Creator = "Smith"`)
	ok, ids := MatchEvent(e, ev)
	if !ok {
		t.Fatal("no match")
	}
	if len(ids) != 2 || ids[0] != "d1" || ids[1] != "d3" {
		t.Errorf("matched ids = %v", ids)
	}
}

func TestMatchEventEventLevelOnly(t *testing.T) {
	// Event-level profile must match even when no individual doc does.
	ev := makeEvent(event.QName{Host: "H", Collection: "C"}, []event.DocRef{{ID: "d1"}})
	e := MustParse(`collection = "H.C" AND event.type = "documents-added"`)
	ok, ids := MatchEvent(e, ev)
	if !ok {
		t.Fatal("event-level profile did not match")
	}
	// All docs trivially satisfy an event-only profile.
	if len(ids) != 1 {
		t.Errorf("ids = %v", ids)
	}
}

func TestMatchEventNoDocs(t *testing.T) {
	ev := event.New("ev-2", event.TypeCollectionRemoved, event.QName{Host: "H", Collection: "C"}, 0, nil, time.Now())
	ok, ids := MatchEvent(MustParse(`event.type = "collection-removed"`), ev)
	if !ok || ids != nil {
		t.Errorf("ok=%v ids=%v", ok, ids)
	}
	ok, _ = MatchEvent(MustParse(`dc.Title = "x"`), ev)
	if ok {
		t.Error("doc profile matched doc-less event")
	}
}

func TestMatchEventMixedProfileNeedsDocMatch(t *testing.T) {
	// Profile references doc metadata; event docs don't satisfy it -> no match
	// even though the event attrs alone would satisfy the collection clause.
	ev := makeEvent(event.QName{Host: "H", Collection: "C"}, []event.DocRef{
		{ID: "d1", Metadata: map[string][]string{"dc.Creator": {"Brown"}}},
	})
	e := MustParse(`collection = "H.C" AND dc.Creator = "Smith"`)
	if ok, _ := MatchEvent(e, ev); ok {
		t.Error("mixed profile matched without a matching doc")
	}
}

func TestNNF(t *testing.T) {
	e := MustParse(`NOT (a = "1" AND (b = "2" OR NOT c = "3"))`)
	n := ToNNF(e)
	// Expect: NOT a=1 OR (NOT b=2 AND c=3)
	or, ok := n.(*Or)
	if !ok {
		t.Fatalf("NNF root %T", n)
	}
	if len(or.Children) != 2 {
		t.Fatalf("NNF children = %d", len(or.Children))
	}
	p0 := or.Children[0].(*Pred)
	if !p0.Neg || p0.Attr != "a" {
		t.Errorf("first child = %v", p0)
	}
	and := or.Children[1].(*And)
	p1 := and.Children[0].(*Pred)
	p2 := and.Children[1].(*Pred)
	if !p1.Neg || p1.Attr != "b" {
		t.Errorf("second child first pred = %v", p1)
	}
	if p2.Neg || p2.Attr != "c" {
		t.Errorf("second child second pred = %v", p2)
	}
	// No Not nodes remain anywhere.
	Walk(n, func(x Expr) {
		if _, bad := x.(*Not); bad {
			t.Error("Not node survives NNF")
		}
	})
}

func TestToDNF(t *testing.T) {
	e := MustParse(`(a = "1" OR b = "2") AND c = "3"`)
	cs, err := ToDNF(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("conjunctions = %d, want 2", len(cs))
	}
	for _, c := range cs {
		if len(c) != 2 {
			t.Errorf("conjunction size = %d, want 2", len(c))
		}
	}
}

// Property: DNF evaluation agrees with direct evaluation on random contexts.
func TestDNFEquivalenceProperty(t *testing.T) {
	exprs := []Expr{
		MustParse(`a = "1" AND (b = "2" OR c = "3")`),
		MustParse(`NOT (a = "1" OR b = "2") AND c = "3"`),
		MustParse(`(a = "1" AND b = "2") OR (NOT c = "3" AND d = "4")`),
		MustParse(`NOT (a = "1" AND b = "2" AND c = "3")`),
		MustParse(`a = "1" OR NOT (b = "2" OR (c = "3" AND d = "4"))`),
	}
	dnfs := make([][]Conjunction, len(exprs))
	for i, e := range exprs {
		cs, err := ToDNF(e)
		if err != nil {
			t.Fatalf("ToDNF(%s): %v", e, err)
		}
		dnfs[i] = cs
	}
	f := func(av, bv, cv, dv uint8) bool {
		ctx := &EvalContext{Doc: &index.Doc{ID: "d", Fields: map[string][]string{
			"a": {fmt.Sprintf("%d", av%3)},
			"b": {fmt.Sprintf("%d", bv%3)},
			"c": {fmt.Sprintf("%d", cv%3)},
			"d": {fmt.Sprintf("%d", dv%3)},
		}}}
		for i, e := range exprs {
			direct := Eval(e, ctx)
			viaDNF := false
			for _, c := range dnfs[i] {
				if EvalConjunction(c, ctx) {
					viaDNF = true
					break
				}
			}
			if direct != viaDNF {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
