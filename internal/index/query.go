package index

import (
	"fmt"
	"strings"
)

// Kind discriminates query node types.
type Kind int

// Query node kinds.
const (
	// KindTerm matches a single token.
	KindTerm Kind = iota + 1
	// KindAnd requires all children.
	KindAnd
	// KindOr requires at least one child.
	KindOr
	// KindNot inverts its single child.
	KindNot
)

// Query is a boolean retrieval query tree.
type Query struct {
	Kind     Kind
	Term     string
	Children []*Query
}

// Term builds a term query node (the term is tokenized; multi-token input
// becomes an AND of its tokens).
func Term(s string) *Query {
	toks := Tokenize(s)
	switch len(toks) {
	case 0:
		return nil
	case 1:
		return &Query{Kind: KindTerm, Term: toks[0]}
	default:
		q := &Query{Kind: KindAnd}
		for _, t := range toks {
			q.Children = append(q.Children, &Query{Kind: KindTerm, Term: t})
		}
		return q
	}
}

// Not inverts q.
func Not(q *Query) *Query {
	if q == nil {
		return nil
	}
	return &Query{Kind: KindNot, Children: []*Query{q}}
}

func combine(kind Kind, children []*Query) *Query {
	kept := make([]*Query, 0, len(children))
	for _, c := range children {
		if c != nil {
			kept = append(kept, c)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return &Query{Kind: kind, Children: kept}
	}
}

// String renders the query in the textual query language accepted by
// ParseQuery, so queries round-trip (profile serialisation depends on this).
func (q *Query) String() string {
	if q == nil {
		return ""
	}
	switch q.Kind {
	case KindTerm:
		return q.Term
	case KindAnd:
		return joinChildren(q.Children, " AND ")
	case KindOr:
		return joinChildren(q.Children, " OR ")
	case KindNot:
		return "NOT " + parenthesize(q.Children[0])
	default:
		return "?"
	}
}

func joinChildren(children []*Query, sep string) string {
	parts := make([]string, 0, len(children))
	for _, c := range children {
		parts = append(parts, parenthesize(c))
	}
	return strings.Join(parts, sep)
}

func parenthesize(q *Query) string {
	if q.Kind == KindTerm {
		return q.String()
	}
	return "(" + q.String() + ")"
}

// ParseQuery parses the retrieval query language:
//
//	query  = or
//	or     = and { "OR" and }
//	and    = unary { ["AND"] unary }     (juxtaposition is AND)
//	unary  = ["NOT"] atom
//	atom   = "(" query ")" | term
//
// Operators are case-insensitive keywords. Everything else tokenizes via
// the index tokenizer. A query of only operators or empty input is an error.
func ParseQuery(s string) (*Query, error) {
	p := &queryParser{tokens: lexQuery(s)}
	q, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.done() {
		return nil, fmt.Errorf("index: trailing input at %q", p.peek())
	}
	if q == nil {
		return nil, fmt.Errorf("index: empty query")
	}
	return q, nil
}

func lexQuery(s string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '(' || r == ')':
			flush()
			out = append(out, string(r))
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			flush()
		default:
			b.WriteRune(r)
		}
	}
	flush()
	return out
}

type queryParser struct {
	tokens []string
	pos    int
}

func (p *queryParser) done() bool { return p.pos >= len(p.tokens) }

func (p *queryParser) peek() string {
	if p.done() {
		return ""
	}
	return p.tokens[p.pos]
}

func (p *queryParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func isKeyword(tok, kw string) bool { return strings.EqualFold(tok, kw) }

func (p *queryParser) parseOr() (*Query, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	children := []*Query{left}
	for !p.done() && isKeyword(p.peek(), "OR") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	return combine(KindOr, children), nil
}

func (p *queryParser) parseAnd() (*Query, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	children := []*Query{left}
	for !p.done() {
		tok := p.peek()
		if tok == ")" || isKeyword(tok, "OR") {
			break
		}
		if isKeyword(tok, "AND") {
			p.next()
			if p.done() {
				return nil, fmt.Errorf("index: dangling AND")
			}
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	return combine(KindAnd, children), nil
}

func (p *queryParser) parseUnary() (*Query, error) {
	if !p.done() && isKeyword(p.peek(), "NOT") {
		p.next()
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if child == nil {
			return nil, fmt.Errorf("index: NOT without operand")
		}
		return Not(child), nil
	}
	return p.parseAtom()
}

func (p *queryParser) parseAtom() (*Query, error) {
	if p.done() {
		return nil, fmt.Errorf("index: unexpected end of query")
	}
	tok := p.next()
	switch {
	case tok == "(":
		q, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("index: missing closing parenthesis")
		}
		return q, nil
	case tok == ")":
		return nil, fmt.Errorf("index: unexpected closing parenthesis")
	case isKeyword(tok, "AND") || isKeyword(tok, "OR"):
		return nil, fmt.Errorf("index: operator %q without left operand", tok)
	default:
		q := Term(tok)
		if q == nil {
			return nil, fmt.Errorf("index: term %q has no indexable tokens", tok)
		}
		return q, nil
	}
}
