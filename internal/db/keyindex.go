package db

import "slices"

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
// (or violates none) pays nothing per fact. GroupsOn returns the same
// form for one relation partitioned on any positions.
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
		in.keyIndex = in.buildKeyIndex(^uint64(0))
	}
	return in.keyIndex
}

// GroupsOn partitions the facts of relation rel by their cells at
// positions (exact cell equality, as EqualRowsOn: NULL equals NULL,
// Int(1) differs from Float(1)) and returns the groups of two or more
// facts in KeyIndex form. With rel's key as positions it is that
// relation's share of KeyEqualGroups; a functional dependency's
// violations lie within its left-hand side's groups.
func (in *Instance) GroupsOn(rel RelID, positions []int) *KeyIndex {
	return in.partition([]RelID{rel}, [][]int{positions}, ^uint64(0))
}

// buildKeyIndex partitions every keyed relation on its key. hashMask is
// applied to every key hash (all ones in production; tests narrow it to
// force collisions).
func (in *Instance) buildKeyIndex(hashMask uint64) *KeyIndex {
	var rels []RelID
	var keys [][]int
	for _, rs := range in.schema.Relations() {
		if rs.HasKey() {
			rels, keys = append(rels, rs.ID()), append(keys, rs.Key)
		}
	}
	return in.partition(rels, keys, hashMask)
}

// keySlot is one open-addressing entry of partition: the smallest fact
// seen with a projection (plus one; 0 marks an empty slot) and a tag of
// its hash.
type keySlot struct {
	tag uint32
	rep int32
}

// partition is the one partition kernel: it groups the facts of each
// relation rels[i] on positions[i] with one open-addressing table of
// representatives per relation, verifying every tag hit with
// EqualRowsOn (no Go map and no per-group slice), and numbers the
// groups of two or more facts in ascending order of their smallest
// member.
func (in *Instance) partition(rels []RelID, positions [][]int, hashMask uint64) *KeyIndex {
	n := in.nFacts
	largest := 0
	for _, rel := range rels {
		largest = max(largest, len(in.byRel[rel]))
	}
	if largest < 2 {
		return &KeyIndex{facts: n, offsets: []uint32{0}}
	}
	groupOf := make([]int32, n)
	for i := range groupOf {
		groupOf[i] = -1
	}
	table := make([]keySlot, 1<<tableBits(largest))
	// First pass: groupOf[f] = the smallest fact sharing f's projection
	// (f itself for the first one), and multi marks the representatives
	// some later fact joined. Facts of a relation iterate in ascending
	// FactID, so the representative is the group's smallest member.
	multi := make(bitset, (n+63)/64)
	for r, rel := range rels {
		ids, pos := in.byRel[rel], positions[r]
		if len(ids) == 0 {
			continue
		}
		bits := tableBits(len(ids))
		t := table[:1<<bits]
		clear(t)
		mask := len(t) - 1
		for _, id := range ids {
			h := in.HashRowOn(id, pos, HashSeed) & hashMask
			tag := uint32(h>>32) ^ uint32(h)
			// Fibonacci hashing: FNV-1a's low bits mix poorly.
			i := int((h * 0x9e3779b97f4a7c15) >> (64 - bits))
			for {
				s := &t[i]
				if s.rep == 0 {
					*s = keySlot{tag: tag, rep: int32(id) + 1}
					groupOf[id] = int32(id)
					break
				}
				if rep := FactID(s.rep - 1); s.tag == tag && in.EqualRowsOn(rep, id, pos) {
					groupOf[id] = int32(rep)
					multi[rep>>6] |= 1 << (uint(rep) & 63)
					break
				}
				i = (i + 1) & mask
			}
		}
	}
	// Second pass, ascending: a representative takes the next group
	// number if its group is violating, else -1; every other member
	// copies its (already numbered) representative's.
	groups := int32(0)
	for f, r := range groupOf {
		switch {
		case r < 0:
		case int(r) == f:
			if multi.get(f) {
				groupOf[f] = groups
				groups++
			} else {
				groupOf[f] = -1
			}
		default:
			groupOf[f] = groupOf[r]
		}
	}
	if groups == 0 {
		return &KeyIndex{facts: n, offsets: []uint32{0}}
	}
	offsets := make([]uint32, groups+1)
	for _, g := range groupOf {
		if g >= 0 {
			offsets[g+1]++
		}
	}
	for g := 1; g < len(offsets); g++ {
		offsets[g] += offsets[g-1]
	}
	members := make([]FactID, offsets[groups])
	next := slices.Clone(offsets[:groups])
	for f, g := range groupOf {
		if g >= 0 {
			members[next[g]] = FactID(f)
			next[g]++
		}
	}
	return &KeyIndex{facts: n, groupOf: groupOf, offsets: offsets, members: members}
}

// tableBits is the log2 size of an open-addressing table holding n
// entries at a load factor of at most one half.
func tableBits(n int) int {
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	return bits
}
