package index

// And combines children conjunctively; nils are dropped.
func And(children ...*Query) *Query { return combine(KindAnd, children) }

// Or combines children disjunctively; nils are dropped.
func Or(children ...*Query) *Query { return combine(KindOr, children) }
