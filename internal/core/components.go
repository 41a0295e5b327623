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
		for _, g := range ctx.adj[f] {
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
// the witnesses touch, numbered through groupOf and a pooled dense
// group → node table, so no fact is searched for.
func splitKeys(ctx *constraintContext, witnessFacts [][]db.FactID) *componentSplit {
	node := ctx.groupNodes()
	var gis []int // node → group
	defer func() {
		for _, gi := range gis {
			node[gi] = -1
		}
		ctx.nodes.Put(&node)
	}()
	uf := unionFind{}
	nodeOf := func(f db.FactID) int32 {
		gi := ctx.groupOf[f]
		if node[gi] < 0 {
			node[gi] = int32(len(gis))
			gis = append(gis, gi)
			uf.parent = append(uf.parent, node[gi])
		}
		return node[gi]
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

	// Number the components by their smallest fact (a group's first
	// member is its smallest), as the closure order would.
	type root struct {
		first db.FactID
		node  int32
	}
	var roots []root
	first := make([]db.FactID, len(gis)) // root node → smallest fact
	for n := range first {
		first[n] = math.MaxInt
	}
	for n, gi := range gis {
		r := uf.find(int32(n))
		first[r] = min(first[r], ctx.groups[gi].Facts[0])
		if int32(n) == r {
			roots = append(roots, root{node: r})
		}
	}
	for i := range roots {
		roots[i].first = first[roots[i].node]
	}
	slices.SortFunc(roots, func(a, b root) int { return cmp.Compare(a.first, b.first) })
	compOf := make([]int32, len(gis)) // root node → component
	for ci, r := range roots {
		compOf[r.node] = int32(ci)
	}
	split := &componentSplit{facts: make([][]db.FactID, len(roots)), groups: make([][]int, len(roots))}
	multi := make([]bool, len(roots))
	for n, gi := range gis {
		ci := compOf[uf.find(int32(n))]
		members := ctx.groups[gi].Facts
		if split.facts[ci] == nil {
			// Capped, so an append never writes into the group.
			split.facts[ci] = members[:len(members):len(members)]
			continue
		}
		if !multi[ci] {
			split.facts[ci] = slices.Clone(split.facts[ci])
			multi[ci] = true
		}
		split.facts[ci] = append(split.facts[ci], members...)
	}
	for ci, m := range multi {
		if m {
			sortFactIDs(split.facts[ci])
		}
	}
	for wi, fs := range witnessFacts {
		if len(fs) == 0 {
			continue
		}
		ci := compOf[uf.find(node[ctx.groupOf[fs[0]]])]
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
