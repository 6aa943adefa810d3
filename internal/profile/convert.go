package profile

import (
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/index"
)

// CollectionCover computes a sound collection scope for an expression: a
// set of qualified collection names such that the expression can only match
// events about one of them. ok is false when no such finite cover exists
// (some DNF conjunction lacks a positive `collection = ...` predicate), in
// which case the profile is interest-unconstrained and matching events may
// come from any collection.
//
// The cover drives the multicast routing optimisation: a server only needs
// to receive events for collections covering its profiles (paper §6: "the
// GDS supports broadcasting and multicasting").
func CollectionCover(e Expr) (collections []string, ok bool) {
	conjunctions, err := ToDNF(e)
	if err != nil {
		return nil, false
	}
	seen := make(map[string]bool)
	for _, c := range conjunctions {
		var names []string
		for _, p := range c {
			if p.Attr == "collection" && p.Op == OpEq && !p.Neg {
				names = append(names, index.Fold(p.Value))
			}
			// `collection in (...)` also yields a finite cover.
			if p.Attr == "collection" && p.Op == OpIn && !p.Neg {
				for _, v := range p.Values {
					names = append(names, index.Fold(v))
				}
			}
		}
		if len(names) == 0 {
			return nil, false
		}
		// A conjunction with several collection constraints can only match
		// if they agree; any one of them is a sound cover entry, and using
		// all keeps the cover conservative.
		for _, n := range names {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sortStrings(out)
	return out, true
}

// SearchEquivalent inverts FromSearchQuery (paper §8 future work: "a smooth
// transformation of Greenstone search queries into profiles and vice
// versa"): if the profile has the shape of a continuous search —
// a collection constraint plus one retrieval sub-query (or one contains
// predicate) — it returns the interactive search that would produce the
// same documents. ok is false for profiles without a search equivalent.
func SearchEquivalent(p *Profile) (coll event.QName, field, query string, ok bool) {
	and, isAnd := p.Expr.(*And)
	var preds []*Pred
	if isAnd {
		for _, c := range and.Children {
			pr, isPred := c.(*Pred)
			if !isPred {
				return event.QName{}, "", "", false
			}
			preds = append(preds, pr)
		}
	} else if pr, isPred := p.Expr.(*Pred); isPred {
		preds = []*Pred{pr}
	} else {
		return event.QName{}, "", "", false
	}

	var collPred, queryPred *Pred
	for _, pr := range preds {
		if pr.Neg {
			return event.QName{}, "", "", false
		}
		switch {
		case pr.Attr == "collection" && pr.Op == OpEq:
			if collPred != nil {
				return event.QName{}, "", "", false
			}
			collPred = pr
		case pr.Op == OpQuery || pr.Op == OpContains:
			if queryPred != nil {
				return event.QName{}, "", "", false
			}
			queryPred = pr
		case pr.Attr == "event.type" && pr.Op == OpEq:
			// Event-type narrowing does not change the retrieval view.
		default:
			return event.QName{}, "", "", false
		}
	}
	if collPred == nil || queryPred == nil {
		return event.QName{}, "", "", false
	}
	qn, err := event.ParseQName(collPred.Value)
	if err != nil {
		return event.QName{}, "", "", false
	}
	field = queryPred.Attr
	if field == "text" {
		field = ""
	}
	return qn, field, queryPred.Value, true
}
