package profile

import (
	"strconv"
	"strings"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/index"
)

// EvalContext is what a profile expression is evaluated against: the
// event-level attributes plus (optionally) one document carried by the
// event. An event matches a profile if the expression holds for the event
// attributes combined with at least one of its documents.
type EvalContext struct {
	// Attrs holds event-level attributes ("collection", "host", "origin",
	// "event.type").
	Attrs map[string]string
	// Doc is the document under consideration; nil when the event carries
	// no documents.
	Doc *index.Doc
}

// Eval reports whether the expression holds in ctx.
func Eval(e Expr, ctx *EvalContext) bool {
	switch v := e.(type) {
	case nil:
		return false
	case *And:
		for _, c := range v.Children {
			if !Eval(c, ctx) {
				return false
			}
		}
		return true
	case *Or:
		for _, c := range v.Children {
			if Eval(c, ctx) {
				return true
			}
		}
		return false
	case *Not:
		return !Eval(v.Child, ctx)
	case *Pred:
		return v.Eval(ctx)
	default:
		return false
	}
}

// MatchEvent reports whether the expression matches ev: it holds for the
// event attributes alone (document-independent profiles such as
// `collection = "X"`), or for at least one document of the event. It also
// returns the IDs of the matching documents (empty when the match is
// event-level only).
func MatchEvent(e Expr, ev *event.Event) (bool, []string) {
	attrs := ev.Attrs()
	if len(ev.Docs) == 0 {
		return Eval(e, &EvalContext{Attrs: attrs}), nil
	}
	var matched []string
	for i := range ev.Docs {
		d := docRefToIndexDoc(&ev.Docs[i])
		if Eval(e, &EvalContext{Attrs: attrs, Doc: &d}) {
			matched = append(matched, ev.Docs[i].ID)
		}
	}
	if len(matched) > 0 {
		return true, matched
	}
	// Fall back to an event-level match: profiles that reference only
	// event attributes should fire even if no single document matches
	// (e.g. `event.type = "collection-removed"` on an event with docs).
	if onlyEventAttrs(e) && Eval(e, &EvalContext{Attrs: attrs}) {
		return true, nil
	}
	return false, nil
}

func docRefToIndexDoc(d *event.DocRef) index.Doc {
	return index.Doc{ID: d.ID, Fields: d.Metadata, Text: d.Snippet}
}

// eventAttrNames are the attributes resolved from the event rather than a
// document.
var eventAttrNames = map[string]bool{
	"collection": true,
	"host":       true,
	"origin":     true,
	"event.type": true,
}

func onlyEventAttrs(e Expr) bool {
	only := true
	Walk(e, func(n Expr) {
		if p, ok := n.(*Pred); ok && !eventAttrNames[p.Attr] {
			only = false
		}
	})
	return only
}

// Eval evaluates the predicate in ctx, honouring Neg.
func (p *Pred) Eval(ctx *EvalContext) bool {
	r := p.evalPositive(ctx)
	if p.Neg {
		return !r
	}
	return r
}

func (p *Pred) evalPositive(ctx *EvalContext) bool {
	values := resolveAttr(p.Attr, ctx)
	switch p.Op {
	case OpExists:
		return len(values) > 0
	case OpEq:
		for _, v := range values {
			if strings.EqualFold(v, p.Value) {
				return true
			}
		}
		return false
	case OpNe:
		if len(values) == 0 {
			return true
		}
		for _, v := range values {
			if strings.EqualFold(v, p.Value) {
				return false
			}
		}
		return true
	case OpLt, OpLe, OpGt, OpGe:
		for _, v := range values {
			if compareOrdered(v, p.Value, p.Op) {
				return true
			}
		}
		return false
	case OpContains, OpPrefix, OpSuffix:
		for _, v := range values {
			if hasFolded(p.Op, v, p.Value) {
				return true
			}
		}
		return false
	case OpMatches:
		for _, v := range values {
			if WildcardMatch(p.Value, v) {
				return true
			}
		}
		return false
	case OpIn:
		for _, v := range values {
			for _, want := range p.Values {
				if strings.EqualFold(v, want) {
					return true
				}
			}
		}
		return false
	case OpQuery:
		if ctx.Doc == nil {
			return false
		}
		q := p.compiledQuery
		if q == nil {
			parsed, err := index.ParseQuery(p.Value)
			if err != nil {
				return false
			}
			q = parsed
		}
		field := p.Attr
		if field == "text" {
			field = index.TextField
		}
		return index.MatchDoc(q, *ctx.Doc, field)
	default:
		return false
	}
}

// resolveAttr maps an attribute name to its values in ctx.
func resolveAttr(attr string, ctx *EvalContext) []string {
	if eventAttrNames[attr] {
		if ctx.Attrs == nil {
			return nil
		}
		if v, ok := ctx.Attrs[attr]; ok && v != "" {
			return []string{v}
		}
		return nil
	}
	if ctx.Doc == nil {
		return nil
	}
	switch attr {
	case "doc.id":
		return []string{ctx.Doc.ID}
	case "text":
		if ctx.Doc.Text == "" {
			return nil
		}
		return []string{ctx.Doc.Text}
	default:
		return ctx.Doc.Fields[attr]
	}
}

// hasFolded applies a substring operator (contains, prefix or suffix) to
// the folded value and operand.
func hasFolded(op Op, v, operand string) bool {
	v, operand = index.Fold(v), index.Fold(operand)
	switch op {
	case OpContains:
		return strings.Contains(v, operand)
	case OpPrefix:
		return strings.HasPrefix(v, operand)
	default:
		return strings.HasSuffix(v, operand)
	}
}

// compareOrdered compares numerically when both sides parse as floats,
// otherwise lexicographically on the folded strings.
func compareOrdered(have, want string, op Op) bool {
	hf, herr := strconv.ParseFloat(strings.TrimSpace(have), 64)
	wf, werr := strconv.ParseFloat(strings.TrimSpace(want), 64)
	var cmp int
	if herr == nil && werr == nil {
		switch {
		case hf < wf:
			cmp = -1
		case hf > wf:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(index.Fold(have), index.Fold(want))
	}
	switch op {
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// WildcardMatch matches pattern against s, where '*' matches any run of
// characters and '?' matches exactly one; matching is case-insensitive.
// The implementation is the classic two-pointer scan with backtracking to
// the last star, linear in len(s)*stars.
func WildcardMatch(pattern, s string) bool {
	p := []rune(index.Fold(pattern))
	t := []rune(index.Fold(s))
	pi, ti := 0, 0
	star, starTi := -1, 0
	for ti < len(t) {
		switch {
		case pi < len(p) && (p[pi] == '?' || p[pi] == t[ti]):
			pi++
			ti++
		case pi < len(p) && p[pi] == '*':
			star = pi
			starTi = ti
			pi++
		case star >= 0:
			pi = star + 1
			starTi++
			ti = starTi
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '*' {
		pi++
	}
	return pi == len(p)
}
