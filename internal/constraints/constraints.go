// Package constraints models integrity constraints beyond single keys:
// denial constraints (DCs), functional dependencies (FDs, a special case
// of DCs), and the machinery of Section V of the paper — minimal
// violations and near-violations — that Reduction V.1 consumes.
package constraints

import (
	"fmt"
	"sort"
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
// Relations whose complete key-DC family is present in dcs skip the
// generic self-join and read their violating pairs off the instance's
// memoized KeyEqualGroups partition (see fastpath.go); the remaining
// DCs evaluate generically, and both streams merge through one
// dedup + minimality filter.
func MinimalViolations(e *cq.Evaluator, dcs []DC) []Violation {
	in := e.Instance()
	dedup := newVioDedup()
	fastRels, generic := splitKeyDCs(in.Schema(), dcs)
	if len(fastRels) > 0 {
		keyGroupViolations(in, fastRels, dedup.add)
	}
	for _, dc := range generic {
		for _, r := range e.Eval(dc.Body()) {
			dedup.add(r.Facts)
		}
	}
	return sortedMinimal(dedup.all)
}

// sortedMinimal orders deduplicated candidate violations by size, then
// lexicographically, and keeps only the minimal sets: any superset
// comes after its subsets in that order.
func sortedMinimal(all []Violation) []Violation {
	sort.Slice(all, func(i, j int) bool {
		if len(all[i]) != len(all[j]) {
			return len(all[i]) < len(all[j])
		}
		return compareIDs(all[i], all[j]) < 0
	})
	return minimalFilter(all)
}

// NearViolationIndex holds, for every fact f, the near-violations
// N^f = { V \ {f} : V ∈ 𝒱, f ∈ V } of Section V. A fact whose singleton
// set is itself a minimal violation is flagged SelfViolating: its only
// near-violation is the auxiliary fact f_true.
type NearViolationIndex struct {
	// ByFact[f] lists the near-violations of fact f (each sorted).
	ByFact [][]Violation
	// SelfViolating[f] reports that {f} is a minimal violation.
	SelfViolating []bool
	// InViolation[f] reports that f occurs in at least one minimal
	// violation (i.e. f is not "safe").
	InViolation []bool
}

// BuildNearViolations derives the near-violation index from the minimal
// violations over an instance with numFacts facts.
func BuildNearViolations(violations []Violation, numFacts int) *NearViolationIndex {
	idx := &NearViolationIndex{
		ByFact:        make([][]Violation, numFacts),
		SelfViolating: make([]bool, numFacts),
		InViolation:   make([]bool, numFacts),
	}
	for _, v := range violations {
		if len(v) == 1 {
			f := v[0]
			idx.SelfViolating[f] = true
			idx.InViolation[f] = true
			continue
		}
		for i, f := range v {
			rest := make(Violation, 0, len(v)-1)
			rest = append(rest, v[:i]...)
			rest = append(rest, v[i+1:]...)
			idx.ByFact[f] = append(idx.ByFact[f], rest)
			idx.InViolation[f] = true
		}
	}
	return idx
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
		if len(e.Eval(dc.Body())) > 0 {
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
