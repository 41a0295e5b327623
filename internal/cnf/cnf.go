// Package cnf provides weighted partial CNF formulas: the interchange
// format between the reductions of internal/core and the solvers of
// internal/sat and internal/maxsat.
//
// Literals follow the DIMACS convention: variable v > 0 appears positively
// as v and negatively as -v. Variables are dense positive integers.
//
// The package also implements Kügel's CNF-negation, which turns a
// Weighted Partial MinSAT instance into a Weighted Partial MaxSAT
// instance — the paper uses it (Section IV) to obtain lub-answers with a
// MaxSAT solver.
package cnf

import (
	"fmt"
	"sort"
)

// Lit is a DIMACS literal: +v or -v for variable v >= 1.
type Lit int

// Var returns the variable of the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Positive reports whether the literal is positive.
func (l Lit) Positive() bool { return l > 0 }

// HardWeight marks a clause as hard (must be satisfied). Any clause whose
// weight equals HardWeight is hard; all other weights must be positive.
const HardWeight int64 = -1

// Clause is a disjunction of literals with a weight. Weight == HardWeight
// means the clause is hard; otherwise the clause is soft with the given
// positive weight.
type Clause struct {
	Lits   []Lit
	Weight int64
}

// Hard reports whether the clause is hard.
func (c Clause) Hard() bool { return c.Weight == HardWeight }

// Formula is a weighted partial CNF formula. NumVars is the highest
// variable index in use; NewVar extends it.
type Formula struct {
	numVars int
	clauses []Clause
}

// New creates a formula with n pre-allocated variables 1..n.
func New(n int) *Formula {
	if n < 0 {
		panic("cnf: negative variable count")
	}
	return &Formula{numVars: n}
}

// NumVars returns the number of variables.
func (f *Formula) NumVars() int { return f.numVars }

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.clauses) }

// Clauses returns the clause slice; callers must not mutate it.
func (f *Formula) Clauses() []Clause { return f.clauses }

// NewVar allocates a fresh variable and returns its index.
func (f *Formula) NewVar() int {
	f.numVars++
	return f.numVars
}

// AddHard appends a hard clause.
func (f *Formula) AddHard(lits ...Lit) {
	f.add(Clause{Lits: lits, Weight: HardWeight})
}

// AddSoft appends a soft clause with the given positive weight.
func (f *Formula) AddSoft(weight int64, lits ...Lit) {
	if weight <= 0 {
		panic(fmt.Sprintf("cnf: soft clause weight %d must be positive", weight))
	}
	f.add(Clause{Lits: lits, Weight: weight})
}

func (f *Formula) add(c Clause) {
	for _, l := range c.Lits {
		v := l.Var()
		if v < 1 {
			panic("cnf: literal with variable < 1")
		}
		if v > f.numVars {
			f.numVars = v
		}
	}
	cp := make([]Lit, len(c.Lits))
	copy(cp, c.Lits)
	c.Lits = cp
	f.clauses = append(f.clauses, c)
}

// TotalSoftWeight returns the sum of all soft clause weights.
func (f *Formula) TotalSoftWeight() int64 {
	var sum int64
	for _, c := range f.clauses {
		if !c.Hard() {
			sum += c.Weight
		}
	}
	return sum
}

// Stats summarizes a formula for the CNF-size tables of the paper
// (Table III).
type Stats struct {
	Vars        int
	Clauses     int
	HardClauses int
	SoftClauses int
	SoftWeight  int64
}

// Stats computes formula statistics.
func (f *Formula) Stats() Stats {
	s := Stats{Vars: f.numVars, Clauses: len(f.clauses)}
	for _, c := range f.clauses {
		if c.Hard() {
			s.HardClauses++
		} else {
			s.SoftClauses++
			s.SoftWeight += c.Weight
		}
	}
	return s
}

// Eval evaluates the formula under the assignment (assignment[v] is the
// truth value of variable v; index 0 unused). It reports whether all hard
// clauses hold, along with the total weight of satisfied and falsified
// soft clauses.
func (f *Formula) Eval(assignment []bool) (hardOK bool, satWeight, falsWeight int64) {
	hardOK = true
	for _, c := range f.clauses {
		sat := false
		for _, l := range c.Lits {
			v := l.Var()
			if v < len(assignment) && assignment[v] == l.Positive() {
				sat = true
				break
			}
		}
		switch {
		case c.Hard():
			if !sat {
				hardOK = false
			}
		case sat:
			satWeight += c.Weight
		default:
			falsWeight += c.Weight
		}
	}
	return hardOK, satWeight, falsWeight
}

// NegateSoft applies Kügel's CNF-negation: it returns a new formula whose
// hard clauses are those of f and whose soft clauses are replaced so that
// maximizing satisfied soft weight in the result corresponds to
// *minimizing* satisfied soft weight in f.
//
// For each soft clause C = (l1 ∨ … ∨ lk, w) a fresh variable y is
// introduced with hard clauses (¬y ∨ ¬li) for every i, and the soft unit
// clause (y, w) replaces C. Setting y true is only possible when C is
// falsified, so the MaxSAT optimum of the result equals the total soft
// weight of f minus the MinSAT optimum of f.
//
// Unit soft clauses avoid the auxiliary variable: (l, w) becomes (¬l, w).
func (f *Formula) NegateSoft() *Formula {
	out := New(f.numVars)
	for _, c := range f.clauses {
		if c.Hard() {
			out.AddHard(c.Lits...)
		}
	}
	for _, c := range f.clauses {
		if c.Hard() {
			continue
		}
		if len(c.Lits) == 1 {
			out.AddSoft(c.Weight, c.Lits[0].Neg())
			continue
		}
		y := Lit(out.NewVar())
		for _, l := range c.Lits {
			out.AddHard(y.Neg(), l.Neg())
		}
		out.AddSoft(c.Weight, y)
	}
	return out
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	out := New(f.numVars)
	out.clauses = make([]Clause, len(f.clauses))
	for i, c := range f.clauses {
		lits := make([]Lit, len(c.Lits))
		copy(lits, c.Lits)
		out.clauses[i] = Clause{Lits: lits, Weight: c.Weight}
	}
	return out
}

// SortLits normalizes every clause by sorting and deduplicating its
// literals; tautological clauses (containing l and ¬l) are kept verbatim
// (the solvers handle them). Intended for tests comparing formulas.
func (f *Formula) SortLits() {
	for i := range f.clauses {
		lits := f.clauses[i].Lits
		sort.Slice(lits, func(a, b int) bool { return lits[a] < lits[b] })
		dedup := lits[:0]
		for j, l := range lits {
			if j == 0 || l != lits[j-1] {
				dedup = append(dedup, l)
			}
		}
		f.clauses[i].Lits = dedup
	}
}
