package profile

import (
	"errors"
	"fmt"
)

// Conjunction is one AND-clause of a DNF: a set of (possibly negated)
// predicates that must all hold.
type Conjunction []*Pred

// ErrDNFTooLarge guards against exponential blow-up when distributing OR
// over AND; profiles this complex should be split by the subscriber.
var ErrDNFTooLarge = errors.New("profile: DNF expansion too large")

// MaxDNFConjunctions bounds the number of clauses produced by ToDNF.
const MaxDNFConjunctions = 512

// ToNNF pushes negations down to the predicates (negation normal form),
// returning a tree containing only And, Or and Pred nodes (with Pred.Neg
// carrying polarity).
func ToNNF(e Expr) Expr {
	return nnf(e, false)
}

func nnf(e Expr, negated bool) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *Not:
		return nnf(v.Child, !negated)
	case *And:
		cs := make([]Expr, 0, len(v.Children))
		for _, c := range v.Children {
			cs = append(cs, nnf(c, negated))
		}
		if negated {
			return NewOr(cs...)
		}
		return NewAnd(cs...)
	case *Or:
		cs := make([]Expr, 0, len(v.Children))
		for _, c := range v.Children {
			cs = append(cs, nnf(c, negated))
		}
		if negated {
			return NewAnd(cs...)
		}
		return NewOr(cs...)
	case *Pred:
		cp := *v
		cp.Values = append([]string(nil), v.Values...)
		if negated {
			cp.Neg = !cp.Neg
		}
		return &cp
	default:
		return nil
	}
}

// ToDNF converts e to disjunctive normal form: a slice of conjunctions such
// that e holds iff at least one conjunction holds. The equality-preferred
// filter engine indexes each conjunction by one of its equality predicates.
func ToDNF(e Expr) ([]Conjunction, error) {
	n := ToNNF(e)
	if n == nil {
		return nil, fmt.Errorf("profile: empty expression")
	}
	return dnf(n)
}

func dnf(e Expr) ([]Conjunction, error) {
	switch v := e.(type) {
	case *Pred:
		return []Conjunction{{v}}, nil
	case *Or:
		var out []Conjunction
		for _, c := range v.Children {
			sub, err := dnf(c)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
			if len(out) > MaxDNFConjunctions {
				return nil, ErrDNFTooLarge
			}
		}
		return out, nil
	case *And:
		// Distribute: cross-product of the children's DNFs.
		acc := []Conjunction{{}}
		for _, c := range v.Children {
			sub, err := dnf(c)
			if err != nil {
				return nil, err
			}
			next := make([]Conjunction, 0, len(acc)*len(sub))
			for _, a := range acc {
				for _, s := range sub {
					merged := make(Conjunction, 0, len(a)+len(s))
					merged = append(merged, a...)
					merged = append(merged, s...)
					next = append(next, merged)
				}
			}
			if len(next) > MaxDNFConjunctions {
				return nil, ErrDNFTooLarge
			}
			acc = next
		}
		return acc, nil
	default:
		return nil, fmt.Errorf("profile: unexpected node %T in NNF", e)
	}
}

// EvalConjunction reports whether every predicate of c holds in ctx.
func EvalConjunction(c Conjunction, ctx *EvalContext) bool {
	for _, p := range c {
		if !p.Eval(ctx) {
			return false
		}
	}
	return true
}
