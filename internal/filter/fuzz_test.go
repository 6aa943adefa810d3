package filter

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
)

// fuzzProgram decodes fuzz bytes into choices; an exhausted input reads as
// zeros, so every byte string is a valid program.
type fuzzProgram struct{ data []byte }

func (p *fuzzProgram) pick(n int) int {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return int(b) % n
}

func (p *fuzzProgram) done() bool { return len(p.data) == 0 }

var (
	fuzzEventAttrs = []string{"collection", "host", "origin", "event.type"}
	fuzzDocAttrs   = []string{"dc.Creator", "dc.Title", "year", "doc.id", "text"}
	// Values repeat across case, and across the members of Unicode
	// simple-fold orbits whose strings.ToLower forms differ (ſ/s/S, the
	// Kelvin sign/k, µ/μ/Μ, ς/σ/Σ): strings.EqualFold calls each orbit
	// equal, so the access keys must too.
	fuzzValues = []string{
		"H.C1", "h.c1", "H.C2", "H", "documents-added", "collection-built",
		"Smith", "smith", "SMITH", "Jones", "Émile", "ÉMILE", "émile",
		"Ωmega", "ωMEGA", "1990", "2001", "d1", "D1", "d2",
		"s", "S", "ſ", "ſmith", "k", "\u212a", "µ", "μ", "Μ", "ς", "σ", "Σ",
	}
	fuzzOps = []string{"=", "=", "=", "!=", ">=", "<", "contains", "startswith", "matches"}
)

func (p *fuzzProgram) attr() string {
	if p.pick(2) == 0 {
		return fuzzEventAttrs[p.pick(len(fuzzEventAttrs))]
	}
	return fuzzDocAttrs[p.pick(len(fuzzDocAttrs))]
}

func (p *fuzzProgram) value() string { return fuzzValues[p.pick(len(fuzzValues))] }

// pred renders one predicate: mostly equalities (the indexed case), some
// negated, plus residual-only operators, membership and existence.
func (p *fuzzProgram) pred() string {
	attr := p.attr()
	var s string
	switch k := p.pick(8); {
	case k < 5:
		s = fmt.Sprintf("%s %s %q", attr, fuzzOps[p.pick(len(fuzzOps))], p.value())
	case k == 5:
		s = fmt.Sprintf("%s in (%q, %q)", attr, p.value(), p.value())
	case k == 6:
		s = attr + " exists"
	default:
		s = fmt.Sprintf("%s = %q", attr, p.value())
	}
	if p.pick(4) == 0 {
		s = "NOT " + s
	}
	return s
}

// expr renders a profile: one or two conjunctions of one to three
// predicates, so OR profiles whose conjunctions hit the same document and
// conjunctions over event attributes alone both occur.
func (p *fuzzProgram) expr() string {
	disjuncts := make([]string, 1+p.pick(2))
	for i := range disjuncts {
		preds := make([]string, 1+p.pick(3))
		for j := range preds {
			preds[j] = p.pred()
		}
		disjuncts[i] = "(" + strings.Join(preds, " AND ") + ")"
	}
	return strings.Join(disjuncts, " OR ")
}

// event builds an event with 0, 1 or several documents whose metadata
// and text repeat values across fields, documents and case.
func (p *fuzzProgram) event(n int) *event.Event {
	docs := make([]event.DocRef, p.pick(5))
	for i := range docs {
		md := map[string][]string{}
		for _, attr := range fuzzDocAttrs[:3] {
			for v := p.pick(3); v > 0; v-- {
				md[attr] = append(md[attr], p.value())
			}
		}
		docs[i] = event.DocRef{ID: []string{"d1", "D1", "d2", "d3"}[p.pick(4)], Metadata: md, Snippet: p.value()}
	}
	colls := []event.QName{{Host: "H", Collection: "C1"}, {Host: "h", Collection: "c1"}, {Host: "H", Collection: "C2"}}
	types := []event.Type{event.TypeDocumentsAdded, event.TypeCollectionBuilt}
	ev := event.New(fmt.Sprintf("ev-%d", n), types[p.pick(len(types))], colls[p.pick(len(colls))], 1, docs, time.Time{})
	ev.Origin = colls[p.pick(len(colls))]
	return ev
}

// sameMatches reports how a and b differ, or "" when they name the same
// profiles with the same DocIDs in the same order.
func sameMatches(a, b []Match) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d matches vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Profile.ID != b[i].Profile.ID {
			return fmt.Sprintf("match %d: profile %s vs %s", i, a[i].Profile.ID, b[i].Profile.ID)
		}
		if !slices.Equal(a[i].DocIDs, b[i].DocIDs) {
			return fmt.Sprintf("profile %s: docs %q vs %q", a[i].Profile.ID, a[i].DocIDs, b[i].DocIDs)
		}
	}
	return ""
}

// FuzzMatchEquivalence holds EqualityPreferred to Naive, the trivially
// correct reference, over arbitrary sequences of Add, replace-by-ID, Remove
// and Match: both must report the same profile IDs, the same DocIDs in the
// same order, and the same Stats().Matches.
func FuzzMatchEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("profiles and events"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := &fuzzProgram{data: data}
		naive, eq := NewNaive(), NewEqualityPreferred()
		var log []string
		for step := 0; step < 64 && (step == 0 || !prog.done()); step++ {
			id := fmt.Sprintf("p%d", prog.pick(8))
			switch prog.pick(4) {
			case 0, 1: // Add, or replace when id is registered
				src := prog.expr()
				e, err := profile.Parse(src)
				if err != nil {
					t.Fatalf("generated profile %q: %v", src, err)
				}
				pr := profile.NewUser(id, "c-"+id, "H", e)
				errN, errE := naive.Add(pr), eq.Add(pr)
				if (errN == nil) != (errE == nil) {
					t.Fatalf("Add(%s %q): naive %v, eqpref %v", id, src, errN, errE)
				}
				log = append(log, fmt.Sprintf("add %s %s", id, src))
			case 2:
				if n, e := naive.Remove(id), eq.Remove(id); n != e {
					t.Fatalf("Remove(%s): naive %v, eqpref %v", id, n, e)
				}
				log = append(log, "remove "+id)
			default:
				ev := prog.event(step)
				if msg := sameMatches(naive.Match(ev), eq.Match(ev)); msg != "" {
					t.Fatalf("event %+v: %s\nafter:\n%s", ev, msg, strings.Join(log, "\n"))
				}
				log = append(log, fmt.Sprintf("match %d docs", len(ev.Docs)))
			}
		}
		if n, e := naive.Stats().Matches, eq.Stats().Matches; n != e {
			t.Fatalf("Stats().Matches: naive %d, eqpref %d", n, e)
		}
	})
}
