// Package constraints models integrity constraints beyond single keys:
// denial constraints (DCs), functional dependencies (FDs, a special case
// of DCs), and the machinery of Section V of the paper — minimal
// violations and near-violations — that Reduction V.1 consumes.
package constraints

import (
	"fmt"
	"slices"
	"strings"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// DC is a denial constraint ∀x ¬(atoms ∧ conds): the atoms and
// comparison conditions must never hold simultaneously. A database
// sub-instance instantiating the body is a violation.
type DC struct {
	Name  string
	Atoms []cq.Atom
	Conds []cq.Condition
}

// Body returns the DC body as a boolean conjunctive query (head empty).
func (d DC) Body() cq.CQ {
	return cq.CQ{Atoms: d.Atoms, Conds: d.Conds}
}

// Validate checks the DC body against the schema.
func (d DC) Validate(schema *db.Schema) error {
	if len(d.Atoms) == 0 {
		return fmt.Errorf("constraints: DC %s has no atoms", d.Name)
	}
	if err := d.Body().Validate(schema); err != nil {
		return fmt.Errorf("constraints: DC %s: %w", d.Name, err)
	}
	return nil
}

func (d DC) String() string {
	parts := make([]string, 0, len(d.Atoms)+len(d.Conds))
	for _, a := range d.Atoms {
		parts = append(parts, a.String())
	}
	for _, c := range d.Conds {
		parts = append(parts, c.String())
	}
	return fmt.Sprintf("¬(%s)", strings.Join(parts, " ∧ "))
}

// FD builds the denial constraints expressing the functional dependency
// lhs → rhs on the relation: two tuples agreeing on lhs must agree on
// rhs. One DC per right-hand-side attribute is produced.
func FD(rs *db.RelationSchema, lhs []string, rhs ...string) ([]DC, error) {
	lhsPos := make([]int, len(lhs))
	for i, name := range lhs {
		p := rs.AttrIndex(name)
		if p < 0 {
			return nil, fmt.Errorf("constraints: FD on %s: unknown attribute %s", rs.Name, name)
		}
		lhsPos[i] = p
	}
	var dcs []DC
	for _, name := range rhs {
		rp := rs.AttrIndex(name)
		if rp < 0 {
			return nil, fmt.Errorf("constraints: FD on %s: unknown attribute %s", rs.Name, name)
		}
		args1 := make([]cq.Term, rs.Arity())
		args2 := make([]cq.Term, rs.Arity())
		for i := range args1 {
			shared := false
			for _, lp := range lhsPos {
				if i == lp {
					shared = true
					break
				}
			}
			if shared {
				v := fmt.Sprintf("l%d", i)
				args1[i] = cq.V(v)
				args2[i] = cq.V(v)
			} else {
				args1[i] = cq.V(fmt.Sprintf("a%d", i))
				args2[i] = cq.V(fmt.Sprintf("b%d", i))
			}
		}
		dcs = append(dcs, DC{
			Name:  fmt.Sprintf("fd:%s:%s->%s", rs.Name, strings.Join(lhs, ","), name),
			Atoms: []cq.Atom{{Rel: rs.Name, Args: args1}, {Rel: rs.Name, Args: args2}},
			Conds: []cq.Condition{{
				Left:  cq.V(fmt.Sprintf("a%d", rp)),
				Op:    cq.OpNE,
				Right: cq.V(fmt.Sprintf("b%d", rp)),
			}},
		})
	}
	return dcs, nil
}

// KeyDCs builds the denial constraints equivalent to the relation's key
// constraint (the FD key → every non-key attribute). Relations without a
// key yield nil.
func KeyDCs(rs *db.RelationSchema) ([]DC, error) {
	if !rs.HasKey() {
		return nil, nil
	}
	keyNames := rs.KeyNames()
	var nonKey []string
	for i, a := range rs.Attrs {
		isKey := false
		for _, p := range rs.Key {
			if i == p {
				isKey = true
				break
			}
		}
		if !isKey {
			nonKey = append(nonKey, a.Name)
		}
	}
	if len(nonKey) == 0 {
		return nil, nil // all-attribute key: duplicates are set-identical
	}
	return FD(rs, keyNames, nonKey...)
}

// SchemaKeyDCs builds KeyDCs for every relation of the schema.
func SchemaKeyDCs(schema *db.Schema) ([]DC, error) {
	var out []DC
	for _, rs := range schema.Relations() {
		dcs, err := KeyDCs(rs)
		if err != nil {
			return nil, err
		}
		out = append(out, dcs...)
	}
	return out, nil
}

// Violation is a set of facts (sorted ascending) that jointly violate
// some denial constraint and is minimal with that property.
type Violation []db.FactID

// MinimalViolations computes the set 𝒱 of minimal violations of the DCs
// on the evaluator's instance: instantiate every DC body, collect the
// distinct fact sets, and discard any set containing a strictly smaller
// violating set. The result is deterministic (sorted by size, then
// lexicographically).
//
// FD-shaped DCs skip the generic self-join and read their violating
// pairs off one partition per (relation, left-hand side) (see
// fastpath.go); the remaining DCs evaluate generically, and both
// streams merge through one sort + minimality filter.
func MinimalViolations(e *cq.Evaluator, dcs []DC) []Violation {
	in := e.Instance()
	var all []Violation
	parts, generic := splitFDs(in.Schema(), dcs)
	for _, part := range parts {
		fdViolations(in, part, func(facts []db.FactID) { all = append(all, facts) })
	}
	return sortedMinimal(appendBags(e, all, generic))
}

// appendBags appends the fact sets of each DC body's witness bag to
// all; sortedMinimal drops the duplicates, such as a set two DCs
// share.
func appendBags(e *cq.Evaluator, all []Violation, dcs []DC) []Violation {
	for _, dc := range dcs {
		for _, w := range e.WitnessBag(cq.Single(dc.Body())) {
			all = append(all, w.Facts)
		}
	}
	return all
}

// sortedMinimal orders candidate violations by size, then
// lexicographically, drops the duplicates (adjacent in that order) and
// keeps only the minimal sets: any superset comes after its subsets in
// that order.
func sortedMinimal(all []Violation) []Violation {
	slices.SortFunc(all, func(a, b Violation) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return compareIDs(a, b)
	})
	return minimalFilter(slices.CompactFunc(all, slices.Equal[Violation]))
}

// NearViolationIndex holds, for every fact f, the near-violations
// N^f = { V \ {f} : V ∈ 𝒱, f ∈ V } of Section V. A fact whose singleton
// set is itself a minimal violation is flagged SelfViolating: its only
// near-violation is the auxiliary fact f_true.
//
// The near-violations are stored in two levels of compressed sparse
// rows — fact → its near-violations → their facts — so the index is a
// few flat arrays with no per-fact slice for the collector to scan.
// Fact f's near-violations are consecutive, so their facts, run
// together, are the facts sharing a violation with f (Neighbours).
type NearViolationIndex struct {
	nearOf  []uint32 // fact f's near-violations are nearOf[f] ≤ k < nearOf[f+1]
	factsOf []uint32 // near-violation k is facts[factsOf[k]:factsOf[k+1]]
	facts   []db.FactID
	// SelfViolating[f] reports that {f} is a minimal violation.
	SelfViolating []bool
	// InViolation[f] reports that f occurs in at least one minimal
	// violation (i.e. f is not "safe").
	InViolation []bool
}

// BuildNearViolations derives the near-violation index from the minimal
// violations over an instance with numFacts facts: count each fact's
// near-violations, then size them and lay their facts out, each fact's
// in violation order.
func BuildNearViolations(violations []Violation, numFacts int) *NearViolationIndex {
	idx := &NearViolationIndex{
		nearOf:        make([]uint32, numFacts+1),
		SelfViolating: make([]bool, numFacts),
		InViolation:   make([]bool, numFacts),
	}
	for _, v := range violations {
		for _, f := range v {
			idx.InViolation[f] = true
			if len(v) == 1 {
				idx.SelfViolating[f] = true
			} else {
				idx.nearOf[f+1]++
			}
		}
	}
	for f := 1; f <= numFacts; f++ {
		idx.nearOf[f] += idx.nearOf[f-1]
	}
	nears := idx.nearOf[numFacts]
	// next[f] is fact f's next near-violation: the first pass sizes
	// them, the second copies their facts.
	next := slices.Clone(idx.nearOf[:numFacts])
	idx.factsOf = make([]uint32, nears+1)
	for _, v := range violations {
		for _, f := range v {
			if len(v) > 1 {
				idx.factsOf[next[f]+1] = uint32(len(v) - 1)
				next[f]++
			}
		}
	}
	for k := uint32(1); k <= nears; k++ {
		idx.factsOf[k] += idx.factsOf[k-1]
	}
	idx.facts = make([]db.FactID, idx.factsOf[nears])
	copy(next, idx.nearOf[:numFacts])
	for _, v := range violations {
		for i, f := range v {
			if len(v) > 1 {
				at := idx.factsOf[next[f]]
				next[f]++
				at += uint32(copy(idx.facts[at:], v[:i]))
				copy(idx.facts[at:], v[i+1:])
			}
		}
	}
	return idx
}

// NumNear returns the number of near-violations of fact f.
func (idx *NearViolationIndex) NumNear(f db.FactID) int {
	return int(idx.nearOf[f+1] - idx.nearOf[f])
}

// Near returns the k-th near-violation of fact f (sorted). The slice
// is capped, so an append never writes into the index.
func (idx *NearViolationIndex) Near(f db.FactID, k int) []db.FactID {
	at := int(idx.nearOf[f]) + k
	lo, hi := idx.factsOf[at], idx.factsOf[at+1]
	return idx.facts[lo:hi:hi]
}

// Neighbours returns the facts sharing a minimal violation with f, once
// per shared violation: f's near-violations run together. The slice is
// capped.
func (idx *NearViolationIndex) Neighbours(f db.FactID) []db.FactID {
	lo, hi := idx.factsOf[idx.nearOf[f]], idx.factsOf[idx.nearOf[f+1]]
	return idx.facts[lo:hi:hi]
}

// Safe reports whether fact f participates in no minimal violation: it
// belongs to every repair.
func (idx *NearViolationIndex) Safe(f db.FactID) bool {
	return !idx.InViolation[f]
}

// CheckConsistent reports whether the instance satisfies all DCs (no
// violation at all).
func CheckConsistent(in *db.Instance, dcs []DC) bool {
	e := cq.NewEvaluator(in)
	for _, dc := range dcs {
		if len(e.WitnessBag(cq.Single(dc.Body()))) > 0 {
			return false
		}
	}
	return true
}

func compareIDs(a, b []db.FactID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

func isSubsetIDs(a, b []db.FactID) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
