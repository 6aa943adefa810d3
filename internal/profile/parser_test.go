package profile

import (
	"errors"
	"testing"
)

func TestParseSimplePredicates(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`collection = "Hamilton.D"`, `collection = "Hamilton.D"`},
		{`dc.Title contains "music"`, `dc.Title contains "music"`},
		{`dc.Creator != "Smith"`, `dc.Creator != "Smith"`},
		{`year >= 1990`, `year >= "1990"`},
		{`year < "2000"`, `year < "2000"`},
		{`dc.Title matches "mus*"`, `dc.Title matches "mus*"`},
		{`dc.Title startswith "The"`, `dc.Title startswith "The"`},
		{`dc.Title endswith "Zealand"`, `dc.Title endswith "Zealand"`},
		{`doc.id in ("d1", "d2")`, `doc.id in ("d1", "d2")`},
		{`text query "whale AND songs"`, `text query "whale AND songs"`},
		{`dc.Subject exists`, `dc.Subject exists`},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if e.String() != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, e.String(), c.want)
		}
	}
}

func TestParseBooleanStructure(t *testing.T) {
	e, err := Parse(`collection = "H.D" AND (dc.Title contains "music" OR dc.Creator = "Smith")`)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := e.(*And)
	if !ok {
		t.Fatalf("root is %T, want *And", e)
	}
	if len(and.Children) != 2 {
		t.Fatalf("children = %d", len(and.Children))
	}
	if _, ok := and.Children[1].(*Or); !ok {
		t.Errorf("second child is %T, want *Or", and.Children[1])
	}
}

func TestParseNot(t *testing.T) {
	e, err := Parse(`NOT dc.Creator = "Smith"`)
	if err != nil {
		t.Fatal(err)
	}
	// NOT over a predicate folds into Pred.Neg.
	p, ok := e.(*Pred)
	if !ok || !p.Neg {
		t.Fatalf("got %T (%v), want negated *Pred", e, e)
	}
	e2, err := Parse(`NOT (a = "1" OR b = "2")`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.(*Not); !ok {
		t.Fatalf("got %T, want *Not", e2)
	}
	// Double negation collapses.
	e3, err := Parse(`NOT NOT a = "1"`)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := e3.(*Pred); !ok || p.Neg {
		t.Fatalf("double negation: %v", e3)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`AND`,
		`collection =`,
		`collection`,
		`= "x"`,
		`collection ~ "x"`,
		`collection ! "x"`,
		`doc.id in ()`,
		`doc.id in ("a"`,
		`doc.id in "a"`,
		`(a = "1"`,
		`a = "1")`,
		`a = "unterminated`,
		`text query "AND OR"`, // invalid sub-query caught at parse time
		`a = "1" extra`,
		`NOT`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestParseQuotingAndEscapes(t *testing.T) {
	e, err := Parse(`dc.Title = "he said \"hi\""`)
	if err != nil {
		t.Fatal(err)
	}
	p := e.(*Pred)
	if p.Value != `he said "hi"` {
		t.Errorf("value = %q", p.Value)
	}
	// Single quotes work too.
	e2, err := Parse(`dc.Title = 'single'`)
	if err != nil {
		t.Fatal(err)
	}
	if e2.(*Pred).Value != "single" {
		t.Errorf("single-quoted value = %q", e2.(*Pred).Value)
	}
	// Render → parse round trip preserves the escaped value.
	e3, err := Parse(e.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", e.String(), err)
	}
	if e3.(*Pred).Value != p.Value {
		t.Errorf("round trip value = %q", e3.(*Pred).Value)
	}
}

func TestParseRenderFixedPoint(t *testing.T) {
	inputs := []string{
		`collection = "Hamilton.D" AND (dc.Title contains "music" OR dc.Creator = "Smith")`,
		`NOT (a = "1" AND b = "2") OR c exists`,
		`doc.id in ("d1", "d2", "d3")`,
		`text query "whale AND (songs OR calls)"`,
		`a = "1" AND b = "2" AND c = "3"`,
		`a = "1" OR b = "2" OR c = "3"`,
	}
	for _, in := range inputs {
		e1, err := Parse(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		r1 := e1.String()
		e2, err := Parse(r1)
		if err != nil {
			t.Fatalf("reparse %q: %v", r1, err)
		}
		if e2.String() != r1 {
			t.Errorf("not fixed point:\n in: %s\n r1: %s\n r2: %s", in, r1, e2.String())
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("((")
}

func TestCloneIndependent(t *testing.T) {
	e := MustParse(`doc.id in ("a", "b")`)
	cp := Clone(e).(*Pred)
	cp.Values[0] = "MUTATED"
	if e.(*Pred).Values[0] != "a" {
		t.Error("Clone shares Values slice")
	}
}

func TestNewAndOrFlattening(t *testing.T) {
	a := &Pred{Attr: "x", Op: OpEq, Value: "1"}
	b := &Pred{Attr: "y", Op: OpEq, Value: "2"}
	c := &Pred{Attr: "z", Op: OpEq, Value: "3"}
	e := NewAnd(NewAnd(a, b), c)
	and, ok := e.(*And)
	if !ok || len(and.Children) != 3 {
		t.Fatalf("nested AND not flattened: %v", e)
	}
	if NewAnd() != nil {
		t.Error("empty NewAnd should be nil")
	}
	if NewAnd(a) != Expr(a) {
		t.Error("single-child NewAnd should collapse")
	}
	or := NewOr(NewOr(a, b), c).(*Or)
	if len(or.Children) != 3 {
		t.Errorf("nested OR not flattened: %v", or)
	}
}

func TestDNFTooLargeGuard(t *testing.T) {
	// (a1=1 OR a1=2) AND (a2=1 OR a2=2) AND ... 10 clauses -> 2^10 = 1024 > 512.
	var clauses []Expr
	for i := 0; i < 10; i++ {
		clauses = append(clauses, NewOr(
			&Pred{Attr: "a", Op: OpEq, Value: "1"},
			&Pred{Attr: "a", Op: OpEq, Value: "2"},
		))
	}
	_, err := ToDNF(NewAnd(clauses...))
	if !errors.Is(err, ErrDNFTooLarge) {
		t.Fatalf("err = %v, want ErrDNFTooLarge", err)
	}
}
