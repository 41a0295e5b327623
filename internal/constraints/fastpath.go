package constraints

import (
	"slices"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// FD fast path for MinimalViolations. An FD-shaped DC is
// R(x̄) ∧ R(ȳ) ∧ x_p <> y_p: two atoms over one relation whose
// arguments are variables, none repeated within an atom, x̄ and ȳ
// sharing variables exactly at the same positions (the left-hand side
// L, possibly empty), and one condition comparing the two atoms'
// variables at one position p outside L, in either operand order. FD
// and KeyDCs build this shape, and a renamed hand-written one is the
// same shape. The generic self-join instantiates it by probing ȳ's L
// positions with x̄'s cells (exact cell equality) and testing p with
// Compare semantics, so its violations are precisely the pairs of facts
// that share a group of Partition(R, L) and CompareAt-differ at p. DCs
// sharing (R, L) are read off one partition together: a pair violates
// one of them iff it differs at one of their positions p. Every other
// DC keeps the generic path, and both candidate streams merge through
// one dedup + minimality filter, so the result is the all-generic one
// (see fastpath_test.go).

// fdPart is one (relation, left-hand side) partition and the positions
// compared by the FD-shaped DCs that share it.
type fdPart struct {
	rel db.RelID
	lhs []int // ascending
	rhs []int // ascending, distinct
}

// fdShape reports whether d is FD-shaped over the schema, and if so its
// relation, left-hand side (ascending) and compared position.
func fdShape(schema *db.Schema, d DC) (rel db.RelID, lhs []int, p int, ok bool) {
	if len(d.Atoms) != 2 || len(d.Conds) != 1 || d.Conds[0].Op != cq.OpNE {
		return 0, nil, 0, false
	}
	rel, ok1 := schema.RelID(d.Atoms[0].Rel)
	rel2, ok2 := schema.RelID(d.Atoms[1].Rel)
	if !ok1 || !ok2 || rel != rel2 {
		return 0, nil, 0, false
	}
	x, y := d.Atoms[0].Args, d.Atoms[1].Args
	arity := schema.RelationByID(rel).Arity()
	if len(x) != arity || len(y) != arity {
		return 0, nil, 0, false
	}
	posX, okX := varPositions(x)
	posY, okY := varPositions(y)
	if !okX || !okY {
		return 0, nil, 0, false
	}
	for i, t := range y {
		if j, shared := posX[t.Var]; shared {
			if j != i {
				return 0, nil, 0, false
			}
			lhs = append(lhs, i)
		}
	}
	c := d.Conds[0]
	if c.Left.IsConst || c.Right.IsConst {
		return 0, nil, 0, false
	}
	l, r := c.Left.Var, c.Right.Var
	if _, inX := posX[l]; !inX {
		l, r = r, l
	}
	p, inX := posX[l]
	q, inY := posY[r]
	if !inX || !inY || p != q || x[p].Var == y[p].Var {
		return 0, nil, 0, false
	}
	return rel, lhs, p, true
}

// varPositions maps each variable of an atom's arguments to its
// position; ok is false on a constant or a repeated variable.
func varPositions(args []cq.Term) (pos map[string]int, ok bool) {
	pos = make(map[string]int, len(args))
	for i, t := range args {
		if _, dup := pos[t.Var]; t.IsConst || dup {
			return nil, false
		}
		pos[t.Var] = i
	}
	return pos, true
}

// splitFDs groups the FD-shaped DCs by (relation, left-hand side), in
// order of first appearance, and returns every other DC in generic.
func splitFDs(schema *db.Schema, dcs []DC) (parts []fdPart, generic []DC) {
	for _, d := range dcs {
		rel, lhs, p, ok := fdShape(schema, d)
		if !ok {
			generic = append(generic, d)
			continue
		}
		i := slices.IndexFunc(parts, func(f fdPart) bool { return f.rel == rel && slices.Equal(f.lhs, lhs) })
		if i < 0 {
			parts = append(parts, fdPart{rel: rel, lhs: lhs})
			i = len(parts) - 1
		}
		if j, found := slices.BinarySearch(parts[i].rhs, p); !found {
			parts[i].rhs = slices.Insert(parts[i].rhs, j, p)
		}
	}
	return parts, generic
}

// fdViolations feeds add with every pair of facts that shares a group
// of the part's partition and CompareAt-differs at one of its compared
// positions. A left-hand side that is the relation's declared key reads
// the instance's key index (stored by a snapshot) instead of
// partitioning. Pairs come out sorted (group members ascend) and, all
// being pairs, never subsume each other before the minimality filter.
func fdViolations(in *db.Instance, part fdPart, add func([]db.FactID)) {
	var x interface {
		NumGroups() int
		Members(g int) []db.FactID
	}
	key := slices.Clone(in.Schema().RelationByID(part.rel).Key)
	slices.Sort(key)
	if len(key) > 0 && slices.Equal(key, part.lhs) {
		x = in.KeyEqualGroups()
	} else {
		x = in.Partition(part.rel, part.lhs)
	}
	for g := 0; g < x.NumGroups(); g++ {
		facts := x.Members(g)
		if in.RelOf(facts[0]) != part.rel {
			continue
		}
		for i, f := range facts {
			for _, h := range facts[i+1:] {
				// CompareAt reads the columns directly: equal dictionary
				// codes short-circuit the string comparison.
				for _, p := range part.rhs {
					if in.CompareAt(f, h, p) != 0 {
						add([]db.FactID{f, h})
						break
					}
				}
			}
		}
	}
}

// vioDedup deduplicates candidate violations by a uint64 hash of the
// sorted fact set, verifying exact equality inside each bucket.
type vioDedup struct {
	byHash map[uint64][]int // hash → indexes into all
	all    []Violation
}

func newVioDedup() *vioDedup {
	return &vioDedup{byHash: make(map[uint64][]int)}
}

// add records the sorted fact set if unseen. The slice is retained.
func (d *vioDedup) add(facts []db.FactID) {
	h := db.HashFactSet(facts)
	for _, i := range d.byHash[h] {
		if compareIDs(d.all[i], facts) == 0 {
			return
		}
	}
	d.byHash[h] = append(d.byHash[h], len(d.all))
	d.all = append(d.all, Violation(facts))
}

// minimalFilter keeps the candidates with no accepted strictly smaller
// subset. Candidates must arrive sorted by (size, lex) and deduplicated.
// Instead of scanning every accepted set per candidate (quadratic), an
// inverted fact→accepted-sets index is walked: an accepted set m ⊂ v
// iff every fact of m hits v, detected by epoch-stamped hit counters in
// one pass over v's facts.
func minimalFilter(all []Violation) []Violation {
	var minimal []Violation
	postings := map[db.FactID][]int{} // fact → indexes into minimal
	var counts, stamps []int
	epoch := 0
	for _, v := range all {
		epoch++
		isMin := true
	scan:
		for _, f := range v {
			for _, mi := range postings[f] {
				if len(minimal[mi]) >= len(v) {
					continue // only strictly smaller sets can subsume
				}
				if stamps[mi] != epoch {
					stamps[mi] = epoch
					counts[mi] = 0
				}
				counts[mi]++
				if counts[mi] == len(minimal[mi]) {
					isMin = false
					break scan
				}
			}
		}
		if isMin {
			mi := len(minimal)
			minimal = append(minimal, v)
			counts = append(counts, 0)
			stamps = append(stamps, 0)
			for _, f := range v {
				postings[f] = append(postings[f], mi)
			}
		}
	}
	return minimal
}

// FastPathInfo reports how the DC set splits between the FD fast path
// and the generic Eval path: the number of (relation, left-hand side)
// partitions the FD-shaped DCs are read off, and the number of DCs left
// to generic instantiation. Pure analysis — explain reports and
// journals use it to attribute the violation route without recomputing
// violations.
func FastPathInfo(schema *db.Schema, dcs []DC) (partitions, genericDCs int) {
	parts, gen := splitFDs(schema, dcs)
	return len(parts), len(gen)
}

// CachedConstraintsInfo returns MinimalViolations plus
// BuildNearViolations for the evaluator's instance and DC set. Nothing
// is memoized: the hit flag is always false. The caller owns the result
// (core.Engine keeps it for the engine's lifetime), so derived state
// lives and dies with its instance.
func CachedConstraintsInfo(e *cq.Evaluator, dcs []DC) ([]Violation, *NearViolationIndex, bool) {
	vio := MinimalViolations(e, dcs)
	return vio, BuildNearViolations(vio, e.Instance().NumFacts()), false
}
