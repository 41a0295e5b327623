// Package cq defines conjunctive queries (select-project-join queries
// with equijoins), unions of conjunctive queries, and their evaluation
// over db.Instance values.
//
// Beyond plain answers, the evaluator produces the *bag of witnesses* of
// a query (Section IV of the paper): for every witnessing assignment, the
// set of facts it uses, with multiplicities. Witness bags are the raw
// material of every SAT reduction in internal/core.
package cq

import (
	"fmt"
	"sort"
	"strings"

	"aggcavsat/internal/db"
)

// Term is an argument of an atom or a side of a comparison: either a
// variable (identified by name) or a constant value.
type Term struct {
	Const   db.Value
	Var     string
	IsConst bool
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v db.Value) Term { return Term{Const: v, IsConst: true} }

func (t Term) String() string {
	if t.IsConst {
		if t.Const.Kind() == db.KindString {
			return fmt.Sprintf("%q", t.Const.AsString())
		}
		return t.Const.String()
	}
	return t.Var
}

// Atom is a relational atom R(t1, …, tn).
type Atom struct {
	Rel  string
	Args []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ","))
}

// CmpOp is a comparison operator usable in conditions (and in denial
// constraints, which reuse this type).
type CmpOp int

const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	// OpLikePrefix matches strings by prefix: Left LIKE 'prefix%'.
	OpLikePrefix
	// OpNotLikePrefix is the negation of OpLikePrefix.
	OpNotLikePrefix
)

func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpLikePrefix:
		return "LIKE"
	case OpNotLikePrefix:
		return "NOT LIKE"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// flip returns the operator with its operands swapped: a op b iff
// b op.flip() a.
func (op CmpOp) flip() CmpOp {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	}
	return op
}

// Apply evaluates the comparison on two values.
func (op CmpOp) Apply(a, b db.Value) bool {
	switch op {
	case OpEQ:
		return a.Compare(b) == 0
	case OpNE:
		return a.Compare(b) != 0
	case OpLT:
		return a.Compare(b) < 0
	case OpLE:
		return a.Compare(b) <= 0
	case OpGT:
		return a.Compare(b) > 0
	case OpGE:
		return a.Compare(b) >= 0
	case OpLikePrefix, OpNotLikePrefix:
		if a.Kind() != db.KindString || b.Kind() != db.KindString {
			return false
		}
		has := strings.HasPrefix(a.AsString(), b.AsString())
		if op == OpLikePrefix {
			return has
		}
		return !has
	default:
		panic("cq: unknown comparison operator")
	}
}

// Condition is a comparison between two terms, at least one of which is
// typically a variable bound by some atom.
type Condition struct {
	Left  Term
	Op    CmpOp
	Right Term
}

func (c Condition) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// CQ is a conjunctive query with optional comparison conditions:
//
//	q(Head) :- Atoms, Conds.
//
// Variables not in Head are existentially quantified.
type CQ struct {
	Head  []string
	Atoms []Atom
	Conds []Condition
}

func (q CQ) String() string {
	atoms := make([]string, 0, len(q.Atoms)+len(q.Conds))
	for _, a := range q.Atoms {
		atoms = append(atoms, a.String())
	}
	for _, c := range q.Conds {
		atoms = append(atoms, c.String())
	}
	return fmt.Sprintf("q(%s) :- %s", strings.Join(q.Head, ","), strings.Join(atoms, ", "))
}

// Vars returns the set of variables occurring in atoms, sorted.
func (q CQ) Vars() []string {
	set := map[string]bool{}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if !t.IsConst {
				set[t.Var] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// SelfJoinFree reports whether no relation symbol repeats among the atoms.
func (q CQ) SelfJoinFree() bool {
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		lc := strings.ToLower(a.Rel)
		if seen[lc] {
			return false
		}
		seen[lc] = true
	}
	return true
}

// Validate checks the query against a schema: every atom's relation must
// exist with matching arity, constants must match attribute kinds, every
// head variable and every condition variable must occur in some atom.
func (q CQ) Validate(schema *db.Schema) error {
	bound := map[string]bool{}
	for _, a := range q.Atoms {
		rs := schema.Relation(a.Rel)
		if rs == nil {
			return fmt.Errorf("cq: unknown relation %s", a.Rel)
		}
		if len(a.Args) != rs.Arity() {
			return fmt.Errorf("cq: atom %s has %d args, relation has arity %d", a, len(a.Args), rs.Arity())
		}
		for i, t := range a.Args {
			if t.IsConst {
				k := t.Const.Kind()
				want := rs.Attrs[i].Kind
				if k != db.KindNull && k != want && !(want == db.KindFloat && k == db.KindInt) {
					return fmt.Errorf("cq: atom %s arg %d: constant kind %s, attribute %s is %s",
						a, i, k, rs.Attrs[i].Name, want)
				}
				continue
			}
			if t.Var == "" {
				return fmt.Errorf("cq: atom %s arg %d: empty variable name", a, i)
			}
			bound[t.Var] = true
		}
	}
	for _, h := range q.Head {
		if !bound[h] {
			return fmt.Errorf("cq: head variable %s not bound by any atom", h)
		}
	}
	for _, c := range q.Conds {
		for _, t := range []Term{c.Left, c.Right} {
			if !t.IsConst && !bound[t.Var] {
				return fmt.Errorf("cq: condition %s uses unbound variable %s", c, t.Var)
			}
		}
	}
	return nil
}

// UCQ is a union of conjunctive queries. All disjuncts must share the
// same head arity (checked by Validate).
type UCQ struct {
	Disjuncts []CQ
}

// Single wraps one CQ as a UCQ.
func Single(q CQ) UCQ { return UCQ{Disjuncts: []CQ{q}} }

func (u UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		parts[i] = q.String()
	}
	return strings.Join(parts, " ∪ ")
}

// Validate validates every disjunct and the head-arity agreement.
func (u UCQ) Validate(schema *db.Schema) error {
	if len(u.Disjuncts) == 0 {
		return fmt.Errorf("cq: empty union")
	}
	arity := len(u.Disjuncts[0].Head)
	for i, q := range u.Disjuncts {
		if len(q.Head) != arity {
			return fmt.Errorf("cq: disjunct %d has head arity %d, want %d", i, len(q.Head), arity)
		}
		if err := q.Validate(schema); err != nil {
			return fmt.Errorf("cq: disjunct %d: %w", i, err)
		}
	}
	return nil
}

// WithExtraConds returns a copy of u with the conditions appended to
// every disjunct. Used by Algorithm 2 to restrict the underlying query to
// one consistent group (Z = b).
func (u UCQ) WithExtraConds(conds ...Condition) UCQ {
	out := UCQ{Disjuncts: make([]CQ, len(u.Disjuncts))}
	for i, q := range u.Disjuncts {
		nq := CQ{
			Head:  append([]string(nil), q.Head...),
			Atoms: append([]Atom(nil), q.Atoms...),
			Conds: append(append([]Condition(nil), q.Conds...), conds...),
		}
		out.Disjuncts[i] = nq
	}
	return out
}

// WithHead returns a copy of u with every disjunct's head replaced.
func (u UCQ) WithHead(head ...string) UCQ {
	out := UCQ{Disjuncts: make([]CQ, len(u.Disjuncts))}
	for i, q := range u.Disjuncts {
		out.Disjuncts[i] = CQ{
			Head:  append([]string(nil), head...),
			Atoms: q.Atoms,
			Conds: q.Conds,
		}
	}
	return out
}
