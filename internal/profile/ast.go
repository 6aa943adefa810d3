// Package profile implements the alerting profile language of paper §5: a
// Boolean combination of attribute–value pairs on the macro level, whose
// values on the micro level may be ID lists, wildcards, or retrieval
// sub-queries evaluated with the collection's own search functionality.
//
// Profiles are written in a small textual language:
//
//	collection = "Hamilton.D" AND (dc.Title contains "music" OR dc.Creator = "Smith")
//	event.type = "documents-added" AND doc.id in ("d1", "d2")
//	text query "whale AND songs"
//	dc.Title matches "mus*"
//
// and are serialised to XML for the wire. The package also provides the
// normal forms (NNF/DNF) consumed by the equality-preferred filter engine.
package profile

import (
	"fmt"
	"strings"

	"github.com/gsalert/gsalert/internal/index"
)

// Expr is a node of a profile expression tree.
type Expr interface {
	// String renders the node in the profile language (parseable back).
	String() string
	isExpr()
}

// And is a conjunction.
type And struct{ Children []Expr }

// Or is a disjunction.
type Or struct{ Children []Expr }

// Not is a negation.
type Not struct{ Child Expr }

// Op enumerates predicate operators.
type Op int

// Predicate operators. Equality is first-class: the filter engine's
// equality-preferred algorithm indexes profiles by their Eq predicates.
const (
	// OpEq tests case-insensitive equality with any attribute value.
	OpEq Op = iota + 1
	// OpNe tests that no attribute value equals the operand.
	OpNe
	// OpLt orders numerically when both sides parse as numbers, else
	// lexicographically.
	OpLt
	// OpLe is less-or-equal.
	OpLe
	// OpGt is greater-than.
	OpGt
	// OpGe is greater-or-equal.
	OpGe
	// OpContains tests case-insensitive substring containment.
	OpContains
	// OpPrefix tests a case-insensitive prefix.
	OpPrefix
	// OpSuffix tests a case-insensitive suffix.
	OpSuffix
	// OpMatches tests a wildcard pattern with * and ?.
	OpMatches
	// OpIn tests membership in an explicit value list (the paper's
	// micro-level "list of IDs", the basis of watch-this observation).
	OpIn
	// OpQuery evaluates the operand as a retrieval query against the
	// attribute's field using the index package (continuous search).
	OpQuery
	// OpExists tests that the attribute has at least one value.
	OpExists
)

var opNames = map[Op]string{
	OpEq:       "=",
	OpNe:       "!=",
	OpLt:       "<",
	OpLe:       "<=",
	OpGt:       ">",
	OpGe:       ">=",
	OpContains: "contains",
	OpPrefix:   "startswith",
	OpSuffix:   "endswith",
	OpMatches:  "matches",
	OpIn:       "in",
	OpQuery:    "query",
	OpExists:   "exists",
}

// String renders the operator token.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op-%d", int(o))
}

// Pred is an attribute–value predicate, the leaf of the macro level.
// Neg marks a pushed-down negation (produced by NNF normalisation).
type Pred struct {
	// Attr names what the predicate inspects. Event-level attributes are
	// "collection", "host", "origin" and "event.type"; "doc.id" addresses
	// the document identifier; "text" addresses full text; everything else
	// is a document metadata field such as "dc.Title".
	Attr string
	// Op is the comparison operator.
	Op Op
	// Value is the operand for unary-operand operators.
	Value string
	// Values is the operand list for OpIn.
	Values []string
	// Neg inverts the predicate outcome.
	Neg bool

	// compiledQuery caches the parsed retrieval query for OpQuery.
	compiledQuery *index.Query
}

func (*And) isExpr()  {}
func (*Or) isExpr()   {}
func (*Not) isExpr()  {}
func (*Pred) isExpr() {}

// String renders the conjunction.
func (a *And) String() string { return joinExprs(a.Children, " AND ") }

// String renders the disjunction.
func (o *Or) String() string { return joinExprs(o.Children, " OR ") }

// String renders the negation.
func (n *Not) String() string { return "NOT " + paren(n.Child) }

// String renders the predicate in parseable form.
func (p *Pred) String() string {
	prefix := ""
	if p.Neg {
		prefix = "NOT "
	}
	switch p.Op {
	case OpExists:
		return prefix + p.Attr + " exists"
	case OpIn:
		vals := make([]string, 0, len(p.Values))
		for _, v := range p.Values {
			vals = append(vals, quoteValue(v))
		}
		return fmt.Sprintf("%s%s in (%s)", prefix, p.Attr, strings.Join(vals, ", "))
	default:
		return fmt.Sprintf("%s%s %s %s", prefix, p.Attr, p.Op, quoteValue(p.Value))
	}
}

// quoteValue renders a string literal in the profile language. The lexer's
// escape rule is "a backslash takes the next rune literally", so only the
// quote and the backslash need escaping; every other rune — control
// characters included — is written raw. (strconv.Quote's \xNN escapes
// would not re-lex, breaking the parseable-back contract of
// Expr.String.)
func quoteValue(v string) string {
	var b strings.Builder
	b.Grow(len(v) + 2)
	b.WriteByte('"')
	for _, r := range v {
		if r == '"' || r == '\\' {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	b.WriteByte('"')
	return b.String()
}

func joinExprs(children []Expr, sep string) string {
	parts := make([]string, 0, len(children))
	for _, c := range children {
		parts = append(parts, paren(c))
	}
	return strings.Join(parts, sep)
}

func paren(e Expr) string {
	switch e.(type) {
	case *Pred:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// NewAnd flattens and combines children conjunctively; nils are dropped and
// single children collapse.
func NewAnd(children ...Expr) Expr { return combine(true, children) }

// NewOr flattens and combines children disjunctively.
func NewOr(children ...Expr) Expr { return combine(false, children) }

func combine(isAnd bool, children []Expr) Expr {
	kept := make([]Expr, 0, len(children))
	for _, c := range children {
		if c == nil {
			continue
		}
		switch v := c.(type) {
		case *And:
			if isAnd {
				kept = append(kept, v.Children...)
				continue
			}
		case *Or:
			if !isAnd {
				kept = append(kept, v.Children...)
				continue
			}
		}
		kept = append(kept, c)
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	if isAnd {
		return &And{Children: kept}
	}
	return &Or{Children: kept}
}

// NewNot negates e, collapsing double negation.
func NewNot(e Expr) Expr {
	if e == nil {
		return nil
	}
	if n, ok := e.(*Not); ok {
		return n.Child
	}
	if p, ok := e.(*Pred); ok {
		cp := *p
		cp.Neg = !cp.Neg
		return &cp
	}
	return &Not{Child: e}
}

// Walk visits every node of e depth-first.
func Walk(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch v := e.(type) {
	case *And:
		for _, c := range v.Children {
			Walk(c, visit)
		}
	case *Or:
		for _, c := range v.Children {
			Walk(c, visit)
		}
	case *Not:
		Walk(v.Child, visit)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Clone deep-copies an expression tree.
func Clone(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *And:
		cs := make([]Expr, 0, len(v.Children))
		for _, c := range v.Children {
			cs = append(cs, Clone(c))
		}
		return &And{Children: cs}
	case *Or:
		cs := make([]Expr, 0, len(v.Children))
		for _, c := range v.Children {
			cs = append(cs, Clone(c))
		}
		return &Or{Children: cs}
	case *Not:
		return &Not{Child: Clone(v.Child)}
	case *Pred:
		cp := *v
		cp.Values = append([]string(nil), v.Values...)
		return &cp
	default:
		return nil
	}
}
