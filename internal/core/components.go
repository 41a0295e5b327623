package core

import (
	"cmp"
	"math"
	"slices"

	"aggcavsat/internal/db"
)

// componentSplit partitions a set of witness-like fact groups into the
// connected components of the repair-entanglement graph: two facts are
// entangled when they share a witness, a key-equal group, or a minimal
// violation. The WPMaxSAT instance of Reduction IV.1 is a disjoint union
// over these components, so each component can be encoded and solved
// independently and the falsified weights summed — a large practical
// win for core-guided MaxSAT (the paper's MaxHS exploits the same
// structure internally through its hitting-set decomposition).
type componentSplit struct {
	// groups[i] lists the indexes (into the caller's witness slice)
	// belonging to component i.
	groups [][]int
	// facts[i] is the closure fact set of component i, sorted.
	facts [][]db.FactID
}

// splitComponents computes the component partition for the given
// witness fact sets. The ctx closure expansion (key-equal siblings or
// violation neighbours) is applied transitively. Components come in
// the order of their smallest fact, and each lists its witnesses in
// ascending order.
func splitComponents(ctx *constraintContext, witnessFacts [][]db.FactID) *componentSplit {
	if ctx.mode == KeysMode {
		return splitKeys(ctx, witnessFacts)
	}
	var seed []db.FactID
	for _, fs := range witnessFacts {
		seed = append(seed, fs...)
	}
	facts := ctx.closure(seed)

	// Union-find over the closure facts' positions, seeded by witness
	// co-occurrence and linked through violations.
	pos := func(f db.FactID) int32 {
		i, _ := slices.BinarySearch(facts, f)
		return int32(i)
	}
	uf := newUnionFind(len(facts))
	for _, fs := range witnessFacts {
		for i := 1; i < len(fs); i++ {
			uf.union(pos(fs[0]), pos(fs[i]))
		}
	}
	for i, f := range facts {
		for _, g := range ctx.nearIdx.Neighbours(f) {
			uf.union(int32(i), pos(g))
		}
	}

	// Collect components in closure order.
	compOf := make([]int32, len(facts)) // root position → component + 1
	split := &componentSplit{}
	for i, f := range facts {
		root := uf.find(int32(i))
		if compOf[root] == 0 {
			split.facts = append(split.facts, nil)
			split.groups = append(split.groups, nil)
			compOf[root] = int32(len(split.facts))
		}
		ci := compOf[root] - 1
		split.facts[ci] = append(split.facts[ci], f)
	}
	for wi, fs := range witnessFacts {
		if len(fs) == 0 {
			continue
		}
		ci := compOf[uf.find(pos(fs[0]))] - 1
		split.groups[ci] = append(split.groups[ci], wi)
	}
	return split
}

// splitKeys is splitComponents in keys mode, where the closure is a
// union of whole key-equal groups: the union-find runs over the groups
// the witnesses touch — violating groups numbered through the key index
// and a pooled dense group → node table, safe facts (singleton groups)
// through the table's safe map — so no fact is searched for.
func splitKeys(ctx *constraintContext, witnessFacts [][]db.FactID) *componentSplit {
	keys := ctx.keys
	pooled := ctx.groupNodes()
	node := pooled.group
	// units maps each node to its group: a violating group's number, or
	// -1-f for the safe fact f.
	var units []int
	defer func() {
		for _, u := range units {
			if u >= 0 {
				node[u] = -1
			}
		}
		pooled.resetSafe()
		ctx.nodes.Put(pooled)
	}()
	uf := unionFind{}
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
	for _, fs := range witnessFacts {
		if len(fs) == 0 {
			continue
		}
		a := nodeOf(fs[0])
		for _, f := range fs[1:] {
			uf.union(a, nodeOf(f))
		}
	}

	// Number the components by their smallest fact, as the closure
	// order would.
	type root struct {
		first db.FactID
		node  int32
	}
	var roots []root
	first := make([]db.FactID, len(units)) // root node → smallest fact
	for n := range first {
		first[n] = math.MaxInt
	}
	for n, u := range units {
		r := uf.find(int32(n))
		first[r] = min(first[r], firstOf(u))
		if int32(n) == r {
			roots = append(roots, root{node: r})
		}
	}
	for i := range roots {
		roots[i].first = first[roots[i].node]
	}
	slices.SortFunc(roots, func(a, b root) int { return cmp.Compare(a.first, b.first) })
	compOf := make([]int32, len(units)) // root node → component
	for ci, r := range roots {
		compOf[r.node] = int32(ci)
	}
	split := &componentSplit{facts: make([][]db.FactID, len(roots)), groups: make([][]int, len(roots))}
	// own marks the components whose fact list is their own slice (and
	// must be sorted): the others alias one violating group's members.
	own := make([]bool, len(roots))
	for n, u := range units {
		ci := compOf[uf.find(int32(n))]
		if u < 0 {
			// The members are capped, so this append never writes into
			// the key index.
			split.facts[ci] = append(split.facts[ci], firstOf(u))
			own[ci] = true
			continue
		}
		members := keys.Members(u)
		if split.facts[ci] == nil {
			split.facts[ci] = members
			continue
		}
		if !own[ci] {
			split.facts[ci] = slices.Clone(split.facts[ci])
			own[ci] = true
		}
		split.facts[ci] = append(split.facts[ci], members...)
	}
	for ci, o := range own {
		if o {
			sortFactIDs(split.facts[ci])
		}
	}
	for wi, fs := range witnessFacts {
		if len(fs) == 0 {
			continue
		}
		ci := compOf[uf.find(nodeOf(fs[0]))]
		split.groups[ci] = append(split.groups[ci], wi)
	}
	return split
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
