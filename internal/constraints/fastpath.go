package constraints

import (
	"slices"
	"strings"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// Key-aware fast path for MinimalViolations. When the DC set contains,
// for some relation, exactly the DCs that KeyDCs generates (the FD
// key → attr for every non-key attribute), instantiating those DC
// bodies by a generic self-join is wasted work: their violations are
// precisely the pairs of facts that agree kind-exactly on the key (the
// join is an index probe, hence Tuple.Key-exact) and differ, under
// Compare, on at least one non-key attribute. Those pairs fall straight
// out of the instance's memoized KeyEqualGroups partition. DCs that are
// not recognized — extra conditions, partial key coverage, hand-written
// shapes — keep the generic Eval path, and both candidate streams merge
// through one dedup + minimality filter, so the hybrid result is
// identical to the all-generic one (see fastpath_test.go).

// termEqual is structural term identity: same kind of term, same
// variable name or kind-exact constant.
func termEqual(a, b cq.Term) bool {
	if a.IsConst != b.IsConst {
		return false
	}
	if a.IsConst {
		return a.Const.EqualExact(b.Const)
	}
	return a.Var == b.Var
}

// dcBodyEqual reports structural equality of two DC bodies (names are
// ignored). Matching is exact — same atom order, argument terms, and
// conditions — so only DCs generated by KeyDCs' canonical construction
// are recognized; a semantically equal but differently named body
// simply stays on the generic path.
func dcBodyEqual(a, b DC) bool {
	if len(a.Atoms) != len(b.Atoms) || len(a.Conds) != len(b.Conds) {
		return false
	}
	for i := range a.Atoms {
		aa, ba := a.Atoms[i], b.Atoms[i]
		if !strings.EqualFold(aa.Rel, ba.Rel) || len(aa.Args) != len(ba.Args) {
			return false
		}
		for j := range aa.Args {
			if !termEqual(aa.Args[j], ba.Args[j]) {
				return false
			}
		}
	}
	for i := range a.Conds {
		ac, bc := a.Conds[i], b.Conds[i]
		if ac.Op != bc.Op || !termEqual(ac.Left, bc.Left) || !termEqual(ac.Right, bc.Right) {
			return false
		}
	}
	return true
}

// splitKeyDCs partitions the DC set: relations whose complete KeyDCs
// set is present (every generated key DC matched structurally) are
// returned in fastRels and their DCs dropped; everything else comes
// back in generic. Completeness matters: with only a partial key-DC
// set, pairs in a key group need not violate any present DC, so the
// all-pairs-that-differ shortcut would over-report.
func splitKeyDCs(schema *db.Schema, dcs []DC) (fastRels map[string]bool, generic []DC) {
	kdCache := map[string][]DC{}
	keyDCsOf := func(rel string) []DC {
		if v, ok := kdCache[rel]; ok {
			return v
		}
		var kds []DC
		if rs := schema.Relation(rel); rs != nil {
			kds, _ = KeyDCs(rs)
		}
		kdCache[rel] = kds
		return kds
	}
	matchRel := make([]string, len(dcs)) // "" = no key-DC match
	covered := map[string]map[int]bool{}
	for i, d := range dcs {
		if len(d.Atoms) != 2 {
			continue
		}
		rel := strings.ToLower(d.Atoms[0].Rel)
		for ki, kd := range keyDCsOf(rel) {
			if dcBodyEqual(d, kd) {
				matchRel[i] = rel
				if covered[rel] == nil {
					covered[rel] = map[int]bool{}
				}
				covered[rel][ki] = true
				break
			}
		}
	}
	fastRels = map[string]bool{}
	for rel, cov := range covered {
		if len(cov) == len(keyDCsOf(rel)) {
			fastRels[rel] = true
		}
	}
	for i, d := range dcs {
		if matchRel[i] == "" || !fastRels[matchRel[i]] {
			generic = append(generic, d)
		}
	}
	return fastRels, generic
}

// keyGroupViolations feeds add with every pair of facts that shares a
// key-equal group of a fast-path relation and Compare-differs on at
// least one non-key attribute — exactly the violation set of that
// relation's complete key-DC family. Pairs are emitted sorted (group
// member lists ascend) and never subsume each other, mirroring the
// generic path's candidates before the global minimality filter.
func keyGroupViolations(in *db.Instance, fastRels map[string]bool, add func([]db.FactID)) {
	nonKeyOf := map[db.RelID][]int{}
	x := in.KeyEqualGroups()
	for g := 0; g < x.NumGroups(); g++ {
		facts := x.Members(g)
		rid := in.RelOf(facts[0])
		rs := in.Schema().RelationByID(rid)
		if !fastRels[rs.Canon()] {
			continue
		}
		nonKey, ok := nonKeyOf[rid]
		if !ok {
			for p := range rs.Attrs {
				if !slices.Contains(rs.Key, p) {
					nonKey = append(nonKey, p)
				}
			}
			nonKeyOf[rid] = nonKey
		}
		for i := 0; i < len(facts); i++ {
			for j := i + 1; j < len(facts); j++ {
				// CompareAt reads the columns directly: under the columnar
				// layout equal dictionary codes short-circuit the string
				// comparison and no tuple is materialized.
				for _, p := range nonKey {
					if in.CompareAt(facts[i], facts[j], p) != 0 {
						add([]db.FactID{facts[i], facts[j]})
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

// FastPathInfo reports how the DC set would split between the key-aware
// fast path and the generic Eval path: the number of relations whose
// complete key-DC family is recognized (violations from the key-group
// partition) and the number of DCs left to generic instantiation. Pure
// analysis — explain reports and journals use it to attribute the
// violation route without recomputing violations.
func FastPathInfo(schema *db.Schema, dcs []DC) (fastRels, genericDCs int) {
	fr, gen := splitKeyDCs(schema, dcs)
	return len(fr), len(gen)
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
