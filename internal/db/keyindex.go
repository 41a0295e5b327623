package db

import (
	"cmp"
	"slices"
)

// KeyIndex is the key-equal-group partition of an instance: the maximal
// sets of facts of one keyed relation that agree on the key. Only the
// violating groups — two or more facts, from which a repair keeps
// exactly one — are stored, in compressed sparse rows; every other fact
// (a unique key, or a relation without a key) is an implicit singleton
// that survives in every repair.
//
// Violating groups are numbered in ascending order of their smallest
// member and each group's members ascend, so the numbering follows the
// order of the full partition with its singletons left out. The index
// holds three flat, pointer-free arrays; a snapshot stores offsets and
// members verbatim and derives groupOf on open (snapshot.go). Without
// violating groups groupOf is nil, so an instance that declares no key
// (or violates none) pays nothing per fact. It is the violating-group
// view of the keyed relations' key partitions (Instance.Partition).
type KeyIndex struct {
	facts   int      // the instance's fact count when the index was built
	groupOf []int32  // FactID → violating group, -1 for an implicit singleton; nil if no group
	offsets []uint32 // group g is members[offsets[g]:offsets[g+1]]; len = groups+1
	members []FactID // the violating groups' members, group after group
}

// NumGroups returns the number of violating key-equal groups.
func (x *KeyIndex) NumGroups() int { return len(x.offsets) - 1 }

// GroupOf returns the violating group of the fact, or -1 when no other
// fact shares its key.
func (x *KeyIndex) GroupOf(f FactID) int {
	if x.groupOf == nil {
		return -1
	}
	return int(x.groupOf[f])
}

// Safe reports whether the fact is in no violating group, so that every
// repair keeps it.
func (x *KeyIndex) Safe(f FactID) bool { return x.groupOf == nil || x.groupOf[f] < 0 }

// Members returns the facts of violating group g, ascending. The slice
// is capped, so an append never writes into the index.
func (x *KeyIndex) Members(g int) []FactID {
	lo, hi := x.offsets[g], x.offsets[g+1]
	return x.members[lo:hi:hi]
}

// MemberOf returns the position of the fact among the members of its
// violating group; f must be in one.
func (x *KeyIndex) MemberOf(f FactID) int32 {
	i, _ := slices.BinarySearch(x.Members(int(x.groupOf[f])), f)
	return int32(i)
}

// KeyEqualGroups returns the instance's key-equal-group index. It is
// memoized (facts are append-only, so the partition only changes when
// the fact count does: an Insert invalidates the memo); a snapshot
// supplies it from its stored section. Callers must treat the index as
// read-only.
func (in *Instance) KeyEqualGroups() *KeyIndex {
	in.groupMu.Lock()
	defer in.groupMu.Unlock()
	if in.keyIndex == nil || in.keyIndex.facts != in.nFacts {
		in.keyIndex = in.buildKeyIndex(in.Partition)
	}
	return in.keyIndex
}

// buildKeyIndex is the violating-group view of every keyed relation's
// key partition, obtained through part: the groups of two or more
// facts, across relations in ascending order of their smallest member.
func (in *Instance) buildKeyIndex(part func(RelID, []int) *Partition) *KeyIndex {
	var groups [][]FactID
	facts := 0
	for _, rs := range in.schema.Relations() {
		if !rs.HasKey() {
			continue
		}
		p := part(rs.ID(), rs.Key)
		for g := range p.NumGroups() {
			if m := p.Members(g); len(m) > 1 {
				groups, facts = append(groups, m), facts+len(m)
			}
		}
	}
	x := &KeyIndex{facts: in.nFacts, offsets: make([]uint32, 1, len(groups)+1)}
	if len(groups) == 0 {
		return x
	}
	slices.SortFunc(groups, func(a, b []FactID) int { return cmp.Compare(a[0], b[0]) })
	x.groupOf = make([]int32, in.nFacts)
	for i := range x.groupOf {
		x.groupOf[i] = -1
	}
	x.members = make([]FactID, 0, facts)
	for g, m := range groups {
		for _, f := range m {
			x.groupOf[f] = int32(g)
		}
		x.members = append(x.members, m...)
		x.offsets = append(x.offsets, uint32(len(x.members)))
	}
	return x
}
