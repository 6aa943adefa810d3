package filter

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
)

func creatorEvent(docs ...string) *event.Event {
	refs := make([]event.DocRef, len(docs))
	for i, creator := range docs {
		refs[i] = event.DocRef{ID: fmt.Sprintf("d%d", i), Metadata: map[string][]string{
			"dc.Creator": {creator},
			"dc.Title":   {"study of word3"},
		}}
	}
	return docsEvent(event.QName{Host: "H", Collection: "C"}, refs...)
}

// maxMatchAllocs is the ceiling on objects one EqualityPreferred.Match
// allocates: the event's attribute map and its strings, the result and one
// array of document IDs, however many profiles match.
const maxMatchAllocs = 8

// Match allocates per call, not per matched profile or evaluated
// conjunction.
func TestMatchAllocs(t *testing.T) {
	m := NewEqualityPreferred()
	for i := 0; i < 300; i++ {
		_ = m.Add(userProfile(t, fmt.Sprintf("pop%03d", i), `dc.Creator = "Popular"`))
	}
	_ = m.Add(userProfile(t, "rare", `dc.Creator = "Rare"`))
	rare, popular := creatorEvent("Rare"), creatorEvent("Popular")
	if got := len(m.Match(rare)); got != 1 {
		t.Fatalf("rare event: %d matches, want 1", got)
	}
	if got := len(m.Match(popular)); got != 300 {
		t.Fatalf("popular event: %d matches, want 300", got)
	}
	one := testing.AllocsPerRun(50, func() { m.Match(rare) })
	many := testing.AllocsPerRun(50, func() { m.Match(popular) })
	if one > maxMatchAllocs || many != one {
		t.Errorf("allocs per Match: %.0f for 1 match, %.0f for 300; want equal and <= %d", one, many, maxMatchAllocs)
	}

	// A residual population is scanned on every event and evaluated per
	// document; that work allocates nothing either.
	res := NewEqualityPreferred()
	for i := 0; i < 2000; i++ {
		_ = res.Add(userProfile(t, fmt.Sprintf("r%04d", i), fmt.Sprintf(`dc.Title contains "word%d"`, i%10)))
	}
	two := creatorEvent("Rare", "Popular")
	if got := len(res.Match(two)); got != 200 {
		t.Fatalf("residual event: %d matches, want 200", got)
	}
	if allocs := testing.AllocsPerRun(20, func() { res.Match(two) }); allocs > one {
		t.Errorf("2 000 residual profiles, 2-doc event: %.0f allocs per Match, want <= %.0f", allocs, one)
	}
}

// Every DocIDs shares one backing array, capped so that appending to one
// match's IDs cannot overwrite the next match's.
func TestMatchDocIDsDoNotAlias(t *testing.T) {
	m := NewEqualityPreferred()
	_ = m.Add(userProfile(t, "a", `dc.Creator = "Smith"`))
	_ = m.Add(userProfile(t, "b", `dc.Creator = "Smith"`))
	got := m.Match(creatorEvent("Smith"))
	if len(got) != 2 {
		t.Fatalf("%d matches, want 2", len(got))
	}
	_ = append(got[0].DocIDs, "intruder")
	if len(got[1].DocIDs) != 1 || got[1].DocIDs[0] != "d0" {
		t.Errorf("appending to one match's DocIDs changed the next: %q", got[1].DocIDs)
	}
}

// Two goroutines match while a third adds, replaces and removes profiles.
// Match reuses scratch state across calls, so this runs under the race
// detector; at every quiescent point the engine must agree with Naive.
func TestMatchConcurrentWithChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eq, naive := NewEqualityPreferred(), NewNaive()
	pool := randomProfiles(t, 200, rng)
	for _, p := range pool[:100] {
		_ = eq.Add(p)
		_ = naive.Add(p)
	}
	events := make([]*event.Event, 16)
	for i := range events {
		events[i] = randomEvent(rng)
	}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					for _, m := range eq.Match(events[(g+i)%len(events)]) {
						if len(m.DocIDs) == 0 {
							t.Errorf("profile %s matched a document event without documents", m.Profile.ID)
						}
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := pool[rng.Intn(len(pool))]
				if rng.Intn(3) == 0 {
					eq.Remove(p.ID)
					naive.Remove(p.ID)
					continue
				}
				// Adding a pool profile under a registered ID replaces it.
				p = profile.NewUser(pool[rng.Intn(100)].ID, "client", "Hamilton", p.Expr)
				_ = eq.Add(p)
				_ = naive.Add(p)
			}
		}()
		wg.Wait()
		for _, ev := range events {
			if msg := sameMatches(naive.Match(ev), eq.Match(ev)); msg != "" {
				t.Fatalf("round %d: %s", round, msg)
			}
		}
	}
}

// A document whose values share an access key walks that bucket once, so
// Stats().Evaluations counts each conjunction once per document.
func TestMatchWalksBucketOncePerDocument(t *testing.T) {
	m := NewEqualityPreferred()
	_ = m.Add(userProfile(t, "p1", `dc.Creator = "Smith"`))
	ev := docsEvent(event.QName{Host: "H", Collection: "C"},
		event.DocRef{ID: "d1", Metadata: map[string][]string{
			"dc.Creator": {"Smith", "SMITH", "smith"},
		}})
	if got := m.Match(ev); len(got) != 1 || len(got[0].DocIDs) != 1 {
		t.Fatalf("matches = %+v, want p1 on d1 once", got)
	}
	if st := m.Stats(); st.Evaluations != 1 {
		t.Errorf("Evaluations = %d, want 1", st.Evaluations)
	}
}
