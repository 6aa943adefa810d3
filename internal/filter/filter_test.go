package filter

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
)

func userProfile(t testing.TB, id, expr string) *profile.Profile {
	t.Helper()
	e, err := profile.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return profile.NewUser(id, "client-"+id, "Hamilton", e)
}

func docsEvent(coll event.QName, docs ...event.DocRef) *event.Event {
	return event.New("ev-"+coll.String(), event.TypeDocumentsAdded, coll, 1, docs, time.Now())
}

func matchers() map[string]func() Matcher {
	return map[string]func() Matcher{
		"naive":  func() Matcher { return NewNaive() },
		"eqpref": func() Matcher { return NewEqualityPreferred() },
	}
}

func TestMatcherBasics(t *testing.T) {
	for name, mk := range matchers() {
		t.Run(name, func(t *testing.T) {
			m := mk()
			p1 := userProfile(t, "p1", `collection = "Hamilton.D" AND dc.Creator = "Smith"`)
			p2 := userProfile(t, "p2", `collection = "London.E"`)
			p3 := userProfile(t, "p3", `dc.Title contains "music"`) // residual (no equality)
			for _, p := range []*profile.Profile{p1, p2, p3} {
				if err := m.Add(p); err != nil {
					t.Fatalf("Add(%s): %v", p.ID, err)
				}
			}
			if m.Len() != 3 {
				t.Fatalf("Len = %d", m.Len())
			}
			ev := docsEvent(event.QName{Host: "Hamilton", Collection: "D"},
				event.DocRef{ID: "d1", Metadata: map[string][]string{
					"dc.Creator": {"Smith"},
					"dc.Title":   {"Music of NZ"},
				}})
			got := m.Match(ev)
			if len(got) != 2 {
				t.Fatalf("matches = %d: %+v", len(got), got)
			}
			if got[0].Profile.ID != "p1" || got[1].Profile.ID != "p3" {
				t.Errorf("matched %s, %s", got[0].Profile.ID, got[1].Profile.ID)
			}
			if len(got[0].DocIDs) != 1 || got[0].DocIDs[0] != "d1" {
				t.Errorf("doc ids = %v", got[0].DocIDs)
			}
			if !m.Remove("p1") {
				t.Error("Remove existing returned false")
			}
			if m.Remove("p1") {
				t.Error("Remove twice returned true")
			}
			if got := m.Match(ev); len(got) != 1 {
				t.Errorf("after remove: %d matches", len(got))
			}
			if _, ok := m.Get("p2"); !ok {
				t.Error("Get(p2) missing")
			}
			if _, ok := m.Get("p1"); ok {
				t.Error("Get(p1) should be gone")
			}
		})
	}
}

func TestMatcherReplaceOnSameID(t *testing.T) {
	for name, mk := range matchers() {
		t.Run(name, func(t *testing.T) {
			m := mk()
			_ = m.Add(userProfile(t, "p1", `collection = "A.B"`))
			_ = m.Add(userProfile(t, "p1", `collection = "C.D"`))
			if m.Len() != 1 {
				t.Fatalf("Len = %d after replace", m.Len())
			}
			evOld := docsEvent(event.QName{Host: "A", Collection: "B"})
			if got := m.Match(evOld); len(got) != 0 {
				t.Errorf("old profile still matches: %+v", got)
			}
			evNew := docsEvent(event.QName{Host: "C", Collection: "D"})
			if got := m.Match(evNew); len(got) != 1 {
				t.Errorf("new profile does not match: %+v", got)
			}
		})
	}
}

func TestMatcherRejectsInvalid(t *testing.T) {
	for name, mk := range matchers() {
		t.Run(name, func(t *testing.T) {
			if err := mk().Add(&profile.Profile{ID: "x"}); err == nil {
				t.Error("invalid profile accepted")
			}
		})
	}
}

func TestEqualityPreferredUsesIndex(t *testing.T) {
	m := NewEqualityPreferred()
	// 100 profiles on distinct collections; only one can match any event.
	for i := 0; i < 100; i++ {
		_ = m.Add(userProfile(t, fmt.Sprintf("p%03d", i), fmt.Sprintf(`collection = "H.C%d"`, i)))
	}
	ev := docsEvent(event.QName{Host: "H", Collection: "C42"})
	got := m.Match(ev)
	if len(got) != 1 || got[0].Profile.ID != "p042" {
		t.Fatalf("matches = %+v", got)
	}
	st := m.Stats()
	if st.Evaluations > 3 {
		t.Errorf("index ineffective: %d evaluations for 100 profiles", st.Evaluations)
	}
	// The naive engine would evaluate all 100.
	n := NewNaive()
	for i := 0; i < 100; i++ {
		_ = n.Add(userProfile(t, fmt.Sprintf("p%03d", i), fmt.Sprintf(`collection = "H.C%d"`, i)))
	}
	n.Match(ev)
	if n.Stats().Evaluations != 100 {
		t.Errorf("naive evaluations = %d", n.Stats().Evaluations)
	}
}

func TestEqualityPreferredDisjunction(t *testing.T) {
	m := NewEqualityPreferred()
	_ = m.Add(userProfile(t, "p1", `collection = "A.B" OR collection = "C.D"`))
	for _, coll := range []event.QName{{Host: "A", Collection: "B"}, {Host: "C", Collection: "D"}} {
		if got := m.Match(docsEvent(coll)); len(got) != 1 {
			t.Errorf("disjunct %v not matched", coll)
		}
	}
	if got := m.Match(docsEvent(event.QName{Host: "X", Collection: "Y"})); len(got) != 0 {
		t.Errorf("unrelated event matched: %+v", got)
	}
}

func TestEqualityPreferredDocMetadataIndex(t *testing.T) {
	m := NewEqualityPreferred()
	_ = m.Add(userProfile(t, "p1", `dc.Creator = "Smith"`))
	ev := docsEvent(event.QName{Host: "H", Collection: "C"},
		event.DocRef{ID: "d1", Metadata: map[string][]string{"dc.Creator": {"smith"}}})
	if got := m.Match(ev); len(got) != 1 {
		t.Fatalf("case-insensitive metadata equality missed: %+v", got)
	}
	// doc.id equality goes through the index too.
	_ = m.Add(userProfile(t, "p2", `doc.id = "d1"`))
	if got := m.Match(ev); len(got) != 2 {
		t.Fatalf("doc.id index missed: %+v", got)
	}
}

func TestNegatedEqualityNotIndexed(t *testing.T) {
	m := NewEqualityPreferred()
	// NOT collection = X has no positive equality -> residual, evaluated always.
	_ = m.Add(userProfile(t, "p1", `NOT collection = "A.B"`))
	if got := m.Match(docsEvent(event.QName{Host: "C", Collection: "D"})); len(got) != 1 {
		t.Fatalf("negated profile missed: %+v", got)
	}
	if got := m.Match(docsEvent(event.QName{Host: "A", Collection: "B"})); len(got) != 0 {
		t.Fatalf("negated profile matched excluded event: %+v", got)
	}
}

// randomProfiles builds a reproducible profile population mixing shapes.
func randomProfiles(t testing.TB, n int, rng *rand.Rand) []*profile.Profile {
	shapes := []func(i int) string{
		func(i int) string { return fmt.Sprintf(`collection = "H.C%d"`, rng.Intn(20)) },
		func(i int) string {
			return fmt.Sprintf(`collection = "H.C%d" AND dc.Creator = "Author%d"`, rng.Intn(20), rng.Intn(50))
		},
		func(i int) string { return fmt.Sprintf(`dc.Title contains "word%d"`, rng.Intn(30)) },
		func(i int) string {
			return fmt.Sprintf(`dc.Creator = "Author%d" OR dc.Creator = "Author%d"`, rng.Intn(50), rng.Intn(50))
		},
		func(i int) string {
			return fmt.Sprintf(`event.type = "documents-added" AND year >= %d`, 1980+rng.Intn(30))
		},
	}
	ps := make([]*profile.Profile, 0, n)
	for i := 0; i < n; i++ {
		expr := shapes[rng.Intn(len(shapes))](i)
		ps = append(ps, userProfile(t, fmt.Sprintf("p%05d", i), expr))
	}
	return ps
}

func randomEvent(rng *rand.Rand) *event.Event {
	docs := make([]event.DocRef, 0, 3)
	for d := 0; d < 1+rng.Intn(3); d++ {
		docs = append(docs, event.DocRef{
			ID: fmt.Sprintf("doc-%d", rng.Intn(1000)),
			Metadata: map[string][]string{
				"dc.Creator": {fmt.Sprintf("Author%d", rng.Intn(50))},
				"dc.Title":   {fmt.Sprintf("study of word%d and word%d", rng.Intn(30), rng.Intn(30))},
				"year":       {fmt.Sprintf("%d", 1980+rng.Intn(40))},
			},
		})
	}
	return event.New(fmt.Sprintf("ev-%d", rng.Int()), event.TypeDocumentsAdded,
		event.QName{Host: "H", Collection: fmt.Sprintf("C%d", rng.Intn(20))}, 1, docs, time.Now())
}

// The central correctness property of the equality-preferred engine: it
// returns exactly the same matches as the naive scan on arbitrary workloads.
func TestEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		naive := NewNaive()
		eq := NewEqualityPreferred()
		for _, p := range randomProfiles(t, 60, rng) {
			if err := naive.Add(p); err != nil {
				return false
			}
			if err := eq.Add(p); err != nil {
				return false
			}
		}
		for i := 0; i < 20; i++ {
			ev := randomEvent(rng)
			a := naive.Match(ev)
			b := eq.Match(ev)
			if len(a) != len(b) {
				t.Logf("seed %d: naive %d matches, eqpref %d", seed, len(a), len(b))
				return false
			}
			for j := range a {
				if a[j].Profile.ID != b[j].Profile.ID {
					return false
				}
				if fmt.Sprint(a[j].DocIDs) != fmt.Sprint(b[j].DocIDs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEnginesAgreeAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	naive := NewNaive()
	eq := NewEqualityPreferred()
	ps := randomProfiles(t, 100, rng)
	for _, p := range ps {
		_ = naive.Add(p)
		_ = eq.Add(p)
	}
	// Remove a random half.
	for _, i := range rng.Perm(100)[:50] {
		naive.Remove(ps[i].ID)
		eq.Remove(ps[i].ID)
	}
	if naive.Len() != eq.Len() {
		t.Fatalf("len: %d vs %d", naive.Len(), eq.Len())
	}
	for i := 0; i < 30; i++ {
		ev := randomEvent(rng)
		a, b := naive.Match(ev), eq.Match(ev)
		if len(a) != len(b) {
			t.Fatalf("event %d: %d vs %d matches", i, len(a), len(b))
		}
		for j := range a {
			if a[j].Profile.ID != b[j].Profile.ID {
				t.Fatalf("event %d: id %s vs %s", i, a[j].Profile.ID, b[j].Profile.ID)
			}
		}
	}
}

func TestMatcherConcurrent(t *testing.T) {
	for name, mk := range matchers() {
		t.Run(name, func(t *testing.T) {
			m := mk()
			rng := rand.New(rand.NewSource(1))
			for _, p := range randomProfiles(t, 50, rng) {
				_ = m.Add(p)
			}
			done := make(chan bool)
			for g := 0; g < 4; g++ {
				go func(g int) {
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 50; i++ {
						m.Match(randomEvent(rng))
					}
					done <- true
				}(g)
			}
			go func() {
				for i := 0; i < 50; i++ {
					p := userProfile(t, fmt.Sprintf("extra-%d", i), `collection = "Z.Z"`)
					_ = m.Add(p)
					m.Remove(p.ID)
				}
				done <- true
			}()
			for i := 0; i < 5; i++ {
				<-done
			}
		})
	}
}

func benchMatcher(b *testing.B, mk func() Matcher, nProfiles int) {
	rng := rand.New(rand.NewSource(99))
	m := mk()
	for _, p := range randomProfiles(b, nProfiles, rng) {
		if err := m.Add(p); err != nil {
			b.Fatal(err)
		}
	}
	events := make([]*event.Event, 64)
	for i := range events {
		events[i] = randomEvent(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(events[i%len(events)])
	}
}

func BenchmarkNaive1k(b *testing.B) { benchMatcher(b, func() Matcher { return NewNaive() }, 1000) }
func BenchmarkEqPref1k(b *testing.B) {
	benchMatcher(b, func() Matcher { return NewEqualityPreferred() }, 1000)
}
func BenchmarkNaive10k(b *testing.B) { benchMatcher(b, func() Matcher { return NewNaive() }, 10000) }
func BenchmarkEqPref10k(b *testing.B) {
	benchMatcher(b, func() Matcher { return NewEqualityPreferred() }, 10000)
}

// The 100k points are the profile count ROADMAP item 3 (a matcher whose
// cost tracks matches, not profiles) is stated at.
func BenchmarkNaive100k(b *testing.B) { benchMatcher(b, func() Matcher { return NewNaive() }, 100000) }
func BenchmarkEqPref100k(b *testing.B) {
	benchMatcher(b, func() Matcher { return NewEqualityPreferred() }, 100000)
}
