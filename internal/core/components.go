package core

import (
	"cmp"
	"math"
	"slices"

	"aggcavsat/internal/db"
)

// componentSplit partitions a weighted bag into the connected
// components of the repair-entanglement graph: two facts are entangled
// when they share a witness, a key-equal group, or a minimal violation.
// The WPMaxSAT instance of Reduction IV.1 is a disjoint union over
// these components, so each component can be encoded and solved
// independently and the falsified weights summed — a large practical
// win for core-guided MaxSAT (the paper's MaxHS exploits the same
// structure internally through its hitting-set decomposition).
//
// The split is two compressed rows, like db.Partition: component c's
// witnesses (indexes into the bag, ascending) are wits[witOff[c]:
// witOff[c+1]], and its closure facts (sorted) are facts[factOff[c]:
// factOff[c+1]].
type componentSplit struct {
	witOff, factOff []int32
	wits            []int32
	facts           []db.FactID
}

// count returns the number of components.
func (s *componentSplit) count() int { return len(s.witOff) - 1 }

// newSplit allocates the offsets of n components and the witness rows
// of the bag's kept witnesses in one array.
func newSplit(n int, b weightedBag) componentSplit {
	kept := 0
	for i := range b.ws {
		if b.kept(i) {
			kept++
		}
	}
	ints := make([]int32, 2*(n+1)+kept)
	return componentSplit{factOff: ints[:n+1], witOff: ints[n+1 : 2*(n+1)], wits: ints[2*(n+1):]}
}

// component returns component c's closure facts and witness indexes.
// Both slices are capped.
func (s *componentSplit) component(c int) ([]db.FactID, []int32) {
	flo, fhi := s.factOff[c], s.factOff[c+1]
	wlo, whi := s.witOff[c], s.witOff[c+1]
	return s.facts[flo:fhi:fhi], s.wits[wlo:whi:whi]
}

// splitComponents computes the component partition of the bag's kept
// witnesses (weighted, with a fact). The closure expansion (key-equal
// siblings or violation neighbours) is applied transitively.
// Components come in the order of their smallest fact, and each lists
// its witnesses in ascending order.
func splitComponents(cc *constraintContext, b weightedBag) componentSplit {
	if cc.mode == KeysMode {
		return splitKeys(cc, b)
	}
	var seed []db.FactID
	for i, w := range b.ws {
		if b.kept(i) {
			seed = append(seed, w.Facts...)
		}
	}
	facts := cc.closure(seed)

	// Union-find over the closure facts' positions, seeded by witness
	// co-occurrence and linked through violations.
	pos := func(f db.FactID) int32 {
		i, _ := slices.BinarySearch(facts, f)
		return int32(i)
	}
	uf := newUnionFind(len(facts))
	for i, w := range b.ws {
		if b.kept(i) {
			for _, f := range w.Facts[1:] {
				uf.union(pos(w.Facts[0]), pos(f))
			}
		}
	}
	for i, f := range facts {
		for _, g := range cc.nearIdx.Neighbours(f) {
			uf.union(int32(i), pos(g))
		}
	}

	// Number the components in closure order, which is by smallest fact.
	comp := make([]int32, len(facts)) // position → root's component + 1, then its component
	n := int32(0)
	for i := range facts {
		if root := uf.find(int32(i)); comp[root] == 0 {
			n++
			comp[root] = n
		}
	}
	for i := range facts {
		comp[i] = comp[uf.find(int32(i))]
	}
	// The closure is sorted, so laying it out in order keeps each
	// component's facts sorted.
	s := newSplit(int(n), b)
	s.facts = make([]db.FactID, len(facts))
	for _, c := range comp {
		s.factOff[c]++ // comp holds the component plus one
	}
	prefixStarts(s.factOff)
	for i, c := range comp {
		s.facts[s.factOff[c]] = facts[i]
		s.factOff[c]++
	}
	s.layoutWitnesses(b, func(f db.FactID) int32 { return comp[pos(f)] - 1 })
	return s
}

// splitKeys is splitComponents in keys mode, where the closure is a
// union of whole key-equal groups: the union-find runs over the groups
// the witnesses touch — violating groups numbered through the key index
// and a pooled dense group → node table, safe facts (singleton groups)
// through the table's safe map — so no fact is searched for.
func splitKeys(cc *constraintContext, b weightedBag) componentSplit {
	keys := cc.keys
	pooled := cc.groupNodes()
	node := pooled.group
	// units maps each node to its group: a violating group's number, or
	// -1-f for the safe fact f. The scratch slices go back to the pool
	// with the table.
	units, uf := pooled.units[:0], unionFind{parent: pooled.parent[:0]}
	first, roots, comp := pooled.first[:0], pooled.roots[:0], pooled.comp[:0]
	defer func() {
		for _, u := range units {
			if u >= 0 {
				node[u] = -1
			}
		}
		pooled.resetSafe()
		pooled.units, pooled.parent = units, uf.parent
		pooled.first, pooled.roots, pooled.comp = first, roots, comp
		cc.nodes.Put(pooled)
	}()
	nodeOf := func(f db.FactID) int32 {
		gi := keys.GroupOf(f)
		if gi < 0 {
			n, isNew := pooled.safeNode(f, int32(len(units)))
			if isNew {
				units = append(units, -1-int(f))
				uf.parent = append(uf.parent, n)
			}
			return n
		}
		if node[gi] < 0 {
			node[gi] = int32(len(units))
			units = append(units, gi)
			uf.parent = append(uf.parent, node[gi])
		}
		return node[gi]
	}
	// firstOf is a unit's smallest fact.
	firstOf := func(u int) db.FactID {
		if u < 0 {
			return db.FactID(-1 - u)
		}
		return keys.Members(u)[0]
	}
	for i, w := range b.ws {
		if b.kept(i) {
			a := nodeOf(w.Facts[0])
			for _, f := range w.Facts[1:] {
				uf.union(a, nodeOf(f))
			}
		}
	}

	// Number the components by their smallest fact, as the closure
	// order would.
	first = slices.Grow(first, len(units))[:len(units)] // root node → smallest fact
	for n := range first {
		first[n] = math.MaxInt
	}
	for n, u := range units {
		r := uf.find(int32(n))
		first[r] = min(first[r], firstOf(u))
		if int32(n) == r {
			roots = append(roots, r)
		}
	}
	slices.SortFunc(roots, func(a, b int32) int { return cmp.Compare(first[a], first[b]) })
	comp = slices.Grow(comp, len(units))[:len(units)] // root node → component, then node → component
	for c, r := range roots {
		comp[r] = int32(c)
	}
	for n := range units {
		comp[n] = comp[uf.find(int32(n))]
	}

	// Lay the units' facts out by component, then sort each component's.
	n := len(roots)
	s := newSplit(n, b)
	for u, unit := range units {
		if unit < 0 {
			s.factOff[comp[u]+1]++
		} else {
			s.factOff[comp[u]+1] += int32(len(keys.Members(unit)))
		}
	}
	s.facts = make([]db.FactID, prefixStarts(s.factOff))
	for u, unit := range units {
		at := &s.factOff[comp[u]+1]
		if unit < 0 {
			s.facts[*at] = db.FactID(-1 - unit)
			*at++
		} else {
			*at += int32(copy(s.facts[*at:], keys.Members(unit)))
		}
	}
	for c := range n {
		if fs := s.facts[s.factOff[c]:s.factOff[c+1]]; !slices.IsSorted(fs) {
			sortFactIDs(fs)
		}
	}
	s.layoutWitnesses(b, func(f db.FactID) int32 { return comp[nodeOf(f)] })
	return s
}

// layoutWitnesses lays the bag's kept witnesses out by component, in
// ascending order; compOf is the component of a witness's fact.
func (s *componentSplit) layoutWitnesses(b weightedBag, compOf func(db.FactID) int32) {
	for i, w := range b.ws {
		if b.kept(i) {
			s.witOff[compOf(w.Facts[0])+1]++
		}
	}
	prefixStarts(s.witOff)
	for i, w := range b.ws {
		if b.kept(i) {
			at := &s.witOff[compOf(w.Facts[0])+1]
			s.wits[*at] = int32(i)
			*at++
		}
	}
}

// prefixStarts turns compressed-row counts into starts: off[c+1] holds
// component c's count on entry and its start on return, so placing
// each item of c at off[c+1] and bumping it leaves off[c+1] at c's end,
// which is c+1's start (db.Partition's layout). It returns the total.
func prefixStarts(off []int32) int32 {
	var sum int32
	for c := 1; c < len(off); c++ {
		off[c], sum = sum, sum+off[c]
	}
	return sum
}

// unionFind is a disjoint-set forest with path halving.
type unionFind struct{ parent []int32 }

func newUnionFind(n int) unionFind {
	uf := unionFind{parent: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf unionFind) union(a, b int32) {
	if ra, rb := uf.find(a), uf.find(b); ra != rb {
		uf.parent[ra] = rb
	}
}
