package core

import (
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
// violation neighbours) is applied transitively.
func splitComponents(ctx *constraintContext, witnessFacts [][]db.FactID) *componentSplit {
	var seed []db.FactID
	for _, fs := range witnessFacts {
		seed = append(seed, fs...)
	}
	facts := ctx.closure(seed)

	// Union-find over the closure facts' positions, seeded by witness
	// co-occurrence and linked through key-equal groups / violations.
	pos := func(f db.FactID) int32 {
		i, _ := slices.BinarySearch(facts, f)
		return int32(i)
	}
	parent := make([]int32, len(facts))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[ra] = rb
		}
	}
	for _, fs := range witnessFacts {
		for i := 1; i < len(fs); i++ {
			union(pos(fs[0]), pos(fs[i]))
		}
	}
	for i, f := range facts {
		switch ctx.mode {
		case KeysMode:
			union(int32(i), pos(ctx.groups[ctx.groupOf[f]].Facts[0]))
		case DCMode:
			for _, g := range ctx.adj[f] {
				union(int32(i), pos(g))
			}
		}
	}

	// Collect components in closure order.
	compOf := make([]int32, len(facts)) // root position → component + 1
	split := &componentSplit{}
	for i, f := range facts {
		root := find(int32(i))
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
		ci := compOf[find(pos(fs[0]))] - 1
		split.groups[ci] = append(split.groups[ci], wi)
	}
	return split
}
