package profile

import (
	"math/rand"
	"testing"

	"github.com/gsalert/gsalert/internal/index"
)

// Property: Covers is sound. Whenever Covers(general, specific) answers
// true, every evaluation context matching specific must match general —
// a false positive here would prune a routing link that still has
// interested subscribers behind it and lose notifications (cover.go's
// contract: conservative, sound, not complete).
//
// The generator draws random DNF pairs over the event-level attributes
// and, to keep the test from being vacuous (random pairs rarely cover),
// also constructs covering pairs by widening: dropping predicates from a
// conjunction and appending extra conjunctions both enlarge the match
// set, so the widened DNF semantically covers the original.

var propAttrs = []string{"collection", "host", "origin", "event.type"}

// propValues include members of Unicode simple-fold orbits (ſ/s/S, the
// Kelvin sign/k, µ/μ/Μ, ς/σ/Σ): equality treats each orbit as one rune, so
// covering and the substring, prefix, suffix and ordering tests must too.
var propValues = []string{"a", "ab", "abc", "b", "ba", "x.y", "1", "2", "10",
	"s", "S", "ſ", "ſa", "as", "k", "\u212a", "µ", "μ", "Μ", "ς", "σ", "Σ"}

func genPred(rng *rand.Rand) *Pred {
	p := &Pred{Attr: propAttrs[rng.Intn(len(propAttrs))]}
	switch rng.Intn(8) {
	case 0:
		p.Op, p.Value = OpEq, propValues[rng.Intn(len(propValues))]
	case 1:
		p.Op, p.Value = OpNe, propValues[rng.Intn(len(propValues))]
	case 2:
		p.Op = OpIn
		for n := 1 + rng.Intn(3); n > 0; n-- {
			p.Values = append(p.Values, propValues[rng.Intn(len(propValues))])
		}
	case 3:
		p.Op, p.Value = OpContains, propValues[rng.Intn(len(propValues))]
	case 4:
		p.Op, p.Value = OpPrefix, propValues[rng.Intn(len(propValues))]
	case 5:
		p.Op, p.Value = OpSuffix, propValues[rng.Intn(len(propValues))]
	case 6:
		p.Op = OpExists
	case 7:
		p.Op, p.Value = OpLe, propValues[rng.Intn(len(propValues))]
	}
	if rng.Intn(5) == 0 {
		p.Neg = true
	}
	return p
}

func genConj(rng *rand.Rand) Conjunction {
	c := make(Conjunction, 1+rng.Intn(3))
	for i := range c {
		c[i] = genPred(rng)
	}
	return c
}

func genDNF(rng *rand.Rand) []Conjunction {
	d := make([]Conjunction, 1+rng.Intn(3))
	for i := range d {
		d[i] = genConj(rng)
	}
	return d
}

// widen returns a DNF that semantically covers d: each conjunction loses a
// random (possibly empty) suffix of its predicates, and extra conjunctions
// may be appended.
func widen(rng *rand.Rand, d []Conjunction) []Conjunction {
	out := make([]Conjunction, 0, len(d)+1)
	for _, c := range d {
		keep := rng.Intn(len(c) + 1)
		out = append(out, append(Conjunction(nil), c[:keep]...))
	}
	for n := rng.Intn(2); n > 0; n-- {
		out = append(out, genConj(rng))
	}
	return out
}

func genAttrs(rng *rand.Rand) map[string]string {
	attrs := make(map[string]string)
	for _, a := range propAttrs {
		if rng.Intn(4) > 0 { // leave some attributes unset
			attrs[a] = propValues[rng.Intn(len(propValues))]
		}
	}
	return attrs
}

func dnfMatches(d []Conjunction, attrs map[string]string) bool {
	ctx := &EvalContext{Attrs: attrs}
	for _, c := range d {
		if EvalConjunction(c, ctx) {
			return true
		}
	}
	return false
}

func TestCoversSoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1405))
	const pairs = 2000
	coveringPairs := 0
	for i := 0; i < pairs; i++ {
		specific := genDNF(rng)
		var general []Conjunction
		if i%2 == 0 {
			general = genDNF(rng) // random pair: usually not covering
		} else {
			general = widen(rng, specific) // constructed covering pair
		}
		if !Covers(general, specific) {
			continue // false negatives are allowed (conservative relation)
		}
		coveringPairs++
		for probe := 0; probe < 200; probe++ {
			attrs := genAttrs(rng)
			if dnfMatches(specific, attrs) && !dnfMatches(general, attrs) {
				t.Fatalf("pair %d: Covers answered true but attrs %v match specific only\nspecific: %v\ngeneral: %v",
					i, attrs, specific, general)
			}
		}
	}
	// The widened half should produce plenty of detected covers; if the
	// detector ever stops recognising them the property test goes vacuous.
	if coveringPairs < pairs/10 {
		t.Fatalf("only %d of %d pairs were detected as covering — test is near-vacuous", coveringPairs, pairs)
	}
}

// Property: covering detected on the widened construction implies the
// widened DNF also covers transitively through a second widening
// (covering is a preorder on the pairs the detector accepts).
func TestCoversTransitiveOnDetectedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(2005))
	checked := 0
	for i := 0; i < 1000; i++ {
		s := genDNF(rng)
		mid := widen(rng, s)
		top := widen(rng, mid)
		if Covers(mid, s) && Covers(top, mid) {
			checked++
			if !Covers(top, s) {
				// Not a soundness bug, but transitivity through dropped-
				// predicate widening should hold for this generator: a
				// failure means the implication lattice regressed.
				t.Fatalf("iteration %d: covering not transitive\ns: %v\nmid: %v\ntop: %v", i, s, mid, top)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d transitive triples checked — generator drifted", checked)
	}
}

// TestCoversFoldOrbit pins one unsound cover that a fold finer than
// equality's produced: `contains "s"` may cover `= "S"` only if "ſ", which
// equals "S", also contains "s".
func TestCoversFoldOrbit(t *testing.T) {
	general := []Conjunction{{{Attr: "dc.Creator", Op: OpContains, Value: "s"}}}
	specific := []Conjunction{{{Attr: "dc.Creator", Op: OpEq, Value: "S"}}}
	if !Covers(general, specific) {
		return // a false negative is allowed
	}
	ctx := &EvalContext{Doc: &index.Doc{Fields: map[string][]string{"dc.Creator": {"ſ"}}}}
	if EvalConjunction(specific[0], ctx) && !EvalConjunction(general[0], ctx) {
		t.Fatal(`Covers(contains "s", = "S") is true, but "ſ" matches = "S" and not contains "s"`)
	}
}
