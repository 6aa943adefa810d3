package profile

import (
	"sort"
	"strings"
)

// This file implements the SIENA-style covering relation on DNF profiles
// and the routing digests derived from it. Both power the content-based
// dissemination mode of the GDS overlay: servers advertise a digest of
// their profile population towards the directory root, directory nodes
// keep one digest per tree link, and events descend only into subtrees
// whose digest matches. Covering keeps the advertisement traffic small: a
// new profile covered by what a link already advertised changes nothing
// and is never re-announced.
//
// All relations here are conservative (sound, not complete): Covers and
// PredImplies may answer false for a pair that is semantically covered,
// but never answer true for one that is not. A false negative costs extra
// messages; a false positive would lose notifications.

// ---------------------------------------------------------------------------
// Predicate implication

// PredImplies reports whether every event satisfying p also satisfies q
// (match(p) ⊆ match(q)). Both predicates must constrain the same
// attribute; predicates over different attributes are incomparable.
//
// The check is conservative: unknown operator combinations answer false.
func PredImplies(p, q *Pred) bool {
	p = normalizeNe(p)
	q = normalizeNe(q)
	if p.Attr != q.Attr {
		return false
	}
	if p.Neg != q.Neg {
		return false
	}
	if p.Neg {
		// ¬A ⇒ ¬B iff B ⇒ A on the positive parts.
		return impliesPositive(positive(q), positive(p))
	}
	return impliesPositive(p, q)
}

// normalizeNe rewrites `attr != v` as `NOT attr = v` (their evaluation
// semantics are identical: no attribute value equals v, vacuously true for
// missing attributes) so implication only reasons about one spelling.
func normalizeNe(p *Pred) *Pred {
	if p.Op != OpNe {
		return p
	}
	cp := *p
	cp.Op = OpEq
	cp.Neg = !p.Neg
	return &cp
}

// positive returns p with the negation stripped.
func positive(p *Pred) *Pred {
	if !p.Neg {
		return p
	}
	cp := *p
	cp.Neg = false
	return &cp
}

// predEqual reports structural equality up to value case folding.
func predEqual(p, q *Pred) bool {
	if p.Attr != q.Attr || p.Op != q.Op || p.Neg != q.Neg {
		return false
	}
	if !strings.EqualFold(p.Value, q.Value) {
		return false
	}
	if len(p.Values) != len(q.Values) {
		return false
	}
	for i := range p.Values {
		if !strings.EqualFold(p.Values[i], q.Values[i]) {
			return false
		}
	}
	return true
}

// impliesPositive is PredImplies for two non-negated predicates on the
// same attribute.
func impliesPositive(p, q *Pred) bool {
	if predEqual(p, q) {
		return true
	}
	switch q.Op {
	case OpExists:
		// Any operator that needs at least one attribute value to match
		// implies existence. OpQuery is excluded: it consults the document,
		// not the attribute values.
		switch p.Op {
		case OpEq, OpContains, OpPrefix, OpSuffix, OpMatches, OpLt, OpLe, OpGt, OpGe, OpExists:
			return true
		case OpIn:
			return len(p.Values) > 0
		}
	case OpEq:
		switch p.Op {
		case OpEq:
			return strings.EqualFold(p.Value, q.Value)
		case OpIn:
			return allValues(p.Values, func(v string) bool { return strings.EqualFold(v, q.Value) })
		}
	case OpIn:
		inQ := func(v string) bool {
			for _, w := range q.Values {
				if strings.EqualFold(v, w) {
					return true
				}
			}
			return false
		}
		switch p.Op {
		case OpEq:
			return inQ(p.Value)
		case OpIn:
			return len(p.Values) > 0 && allValues(p.Values, inQ)
		}
	case OpContains, OpPrefix, OpSuffix:
		// Every value p admits equals, starts with, ends in or contains
		// p.Value, so q holds whenever p.Value passes q's test; a prefix or
		// a suffix is also a substring.
		has := func(v string) bool { return hasFolded(q.Op, v, q.Value) }
		switch {
		case p.Op == OpEq, p.Op == q.Op, q.Op == OpContains && (p.Op == OpPrefix || p.Op == OpSuffix):
			return has(p.Value)
		case p.Op == OpIn:
			return len(p.Values) > 0 && allValues(p.Values, has)
		}
	case OpMatches:
		switch p.Op {
		case OpEq:
			return WildcardMatch(q.Value, p.Value)
		case OpIn:
			return len(p.Values) > 0 && allValues(p.Values, func(v string) bool {
				return WildcardMatch(q.Value, v)
			})
		}
	case OpLt, OpLe, OpGt, OpGe:
		// An equality pins the value, so the range check on that value is
		// exactly what evaluation would compute. Range-vs-range implication
		// is deliberately not attempted: compareOrdered mixes numeric and
		// lexicographic comparison per event value, which breaks the
		// transitivity such reasoning would rely on.
		switch p.Op {
		case OpEq:
			return compareOrdered(p.Value, q.Value, q.Op)
		case OpIn:
			return len(p.Values) > 0 && allValues(p.Values, func(v string) bool {
				return compareOrdered(v, q.Value, q.Op)
			})
		}
	}
	return false
}

func allValues(vs []string, ok func(string) bool) bool {
	for _, v := range vs {
		if !ok(v) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Conjunction and DNF covering

// ConjCovers reports whether the general conjunction covers the specific
// one: every event matching specific also matches general. Sufficient
// condition: every predicate of general is implied by some predicate of
// specific. The empty conjunction is ⊤ and covers everything; a specific
// conjunction with predicates on attributes general does not mention is
// still covered (general is the weaker constraint), while the converse —
// general constraining an attribute specific leaves free — is not.
func ConjCovers(general, specific Conjunction) bool {
	for _, qg := range general {
		implied := false
		for _, ps := range specific {
			if PredImplies(ps, qg) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// Covers reports whether the general DNF covers the specific one: every
// event matching specific also matches general. Sufficient condition:
// every conjunction of specific is covered by some conjunction of general.
// The empty DNF matches nothing and is covered by anything.
func Covers(general, specific []Conjunction) bool {
	for _, cs := range specific {
		covered := false
		for _, cg := range general {
			if ConjCovers(cg, cs) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Routing digests

// Digest is the routing-level summary of a profile population: a DNF over
// event-level attributes only. A digest over-approximates the profiles it
// summarises — every event a summarised profile could match, the digest
// matches — so routing by digest never loses notifications, only delivers
// (bounded) extras which local filtering discards as before.
//
// The empty digest matches nothing (no profiles, prune the link); the
// digest holding one empty conjunction is ⊤ and matches everything.
type Digest []Conjunction

// TopConjString is the wire spelling of the empty (match-all) conjunction.
const TopConjString = "*"

// TopDigest returns the match-all digest, the summary of a link whose
// interests are unknown (e.g. a server that has not advertised yet).
func TopDigest() Digest { return Digest{Conjunction{}} }

// IsTop reports whether the digest matches every event.
func (d Digest) IsTop() bool {
	for _, c := range d {
		if len(c) == 0 {
			return true
		}
	}
	return false
}

// Matches reports whether an event with the given event-level attributes
// matches the digest.
func (d Digest) Matches(attrs map[string]string) bool {
	ctx := &EvalContext{Attrs: attrs}
	for _, c := range d {
		if EvalConjunction(c, ctx) {
			return true
		}
	}
	return false
}

// DigestOf summarises one profile expression for routing. Every DNF
// conjunction is projected onto its routable event-level predicates;
// predicates the directory cannot evaluate (document metadata, text,
// retrieval sub-queries) are dropped, which widens the conjunction and
// keeps the digest sound. A conjunction left empty by the projection, or
// an expression too large to normalise, yields the match-all digest.
func DigestOf(e Expr) Digest {
	conjunctions, err := ToDNF(e)
	if err != nil {
		return TopDigest()
	}
	d := make(Digest, 0, len(conjunctions))
	for _, c := range conjunctions {
		proj := make(Conjunction, 0, len(c))
		for _, p := range c {
			if routablePred(p) {
				proj = append(proj, p)
			}
		}
		d = append(d, proj)
	}
	return NormalizeDigest(d)
}

// routablePred reports whether a predicate can be evaluated by a GDS node
// from event attributes alone.
func routablePred(p *Pred) bool {
	return eventAttrNames[p.Attr] && p.Op != OpQuery
}

// MergeDigests unions several digests into one normalised digest.
func MergeDigests(ds ...Digest) Digest {
	var all Digest
	for _, d := range ds {
		all = append(all, d...)
	}
	return NormalizeDigest(all)
}

// NormalizeDigest sorts and deduplicates a digest and applies the covering
// prune: a conjunction covered by another conjunction of the digest is
// redundant and removed. Normalised digests have a canonical rendering, so
// equality of Canonical() strings is equality of digests.
func NormalizeDigest(d Digest) Digest {
	if d.IsTop() {
		return TopDigest()
	}
	// Canonical per-conjunction order first, so renderings are comparable.
	sorted := make(Digest, 0, len(d))
	for _, c := range d {
		cc := append(Conjunction(nil), c...)
		sortPreds(cc)
		sorted = append(sorted, cc)
	}
	// Covering prune, keeping the first of mutually covering conjunctions.
	var kept Digest
	for i, c := range sorted {
		covered := false
		for j, other := range sorted {
			if i == j {
				continue
			}
			if !ConjCovers(other, c) {
				continue
			}
			// Mutual covering: drop the later one only.
			if ConjCovers(c, other) && i < j {
				continue
			}
			covered = true
			break
		}
		if !covered {
			kept = append(kept, c)
		}
	}
	// Drop duplicates and order conjunctions by rendering.
	seen := make(map[string]bool, len(kept))
	out := make(Digest, 0, len(kept))
	for _, c := range kept {
		s := conjString(c)
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return conjString(out[i]) < conjString(out[j]) })
	return out
}

func sortPreds(c Conjunction) {
	sort.Slice(c, func(i, j int) bool { return c[i].String() < c[j].String() })
}

// conjString renders one conjunction in the profile language; the empty
// conjunction renders as TopConjString.
func conjString(c Conjunction) string {
	if len(c) == 0 {
		return TopConjString
	}
	parts := make([]string, 0, len(c))
	for _, p := range c {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " AND ")
}

// Strings renders the digest for the wire, one parseable string per
// conjunction.
func (d Digest) Strings() []string {
	out := make([]string, 0, len(d))
	for _, c := range d {
		out = append(out, conjString(c))
	}
	return out
}

// Canonical renders a normalised digest as one comparison key. The empty
// digest renders as the empty string.
func (d Digest) Canonical() string {
	return strings.Join(d.Strings(), " OR ")
}

// ParseDigest inverts Digest.Strings.
func ParseDigest(conjs []string) (Digest, error) {
	d := make(Digest, 0, len(conjs))
	for _, s := range conjs {
		if strings.TrimSpace(s) == TopConjString {
			d = append(d, Conjunction{})
			continue
		}
		e, err := Parse(s)
		if err != nil {
			return nil, err
		}
		sub, err := ToDNF(e)
		if err != nil {
			return nil, err
		}
		d = append(d, sub...)
	}
	return NormalizeDigest(d), nil
}
