package db

import "slices"

// Partition is the partition of one relation's facts by their cells at
// a list of positions (exact cell equality, as EqualRowsOn: NULL equals
// NULL, Int(1) differs from Float(1)). It is the one hash kernel of the
// pipeline: the evaluator's join probes, the key-equal groups of
// Reduction IV.1 (KeyEqualGroups), a functional dependency's
// left-hand-side groups (Reduction V.1) and the rewriting's key
// lookups (internal/conquer) all read one.
//
// Groups are numbered in ascending order of their smallest member and
// each group's members ascend, in compressed sparse rows. An
// open-addressing table of flat words maps a projection's hash to its
// group, so a probe is one verified lookup. Every array is sized by the
// relation, none by the instance, and none holds a pointer. A Partition
// is immutable; Instance.Partition memoises one per (relation,
// positions).
type Partition struct {
	in        *Instance
	positions []int
	offsets   []uint32 // group g is members[offsets[g]:offsets[g+1]]; len = groups+1
	members   []FactID // the relation's facts, group after group
	// table has a power-of-two length 1<<bits of at least twice the
	// groups. A slot holds the top 32 bits of its group's projection
	// hash above group+1; 0 marks it empty. A hash's home slot is its
	// top bits, so the stored half re-homes a slot in a table of any
	// other size.
	table    []uint64
	bits     uint
	hashMask uint64 // applied to every hash: all ones but in collision tests
}

// NumGroups returns the number of groups: the distinct projections.
func (p *Partition) NumGroups() int { return len(p.offsets) - 1 }

// Members returns the facts of group g, ascending. The slice is capped,
// so an append never writes into the partition.
func (p *Partition) Members(g int) []FactID {
	lo, hi := p.offsets[g], p.offsets[g+1]
	return p.members[lo:hi:hi]
}

// Lookup returns the group whose projection equals cells (one per
// position, in position order), or nil. Cells must come from the
// partition's instance: a hit is verified by cell equality.
func (p *Partition) Lookup(cells []Cell) []FactID {
	h := HashSeed
	for _, c := range cells {
		h = HashCell(h, c)
	}
	h &= p.hashMask
	mask := len(p.table) - 1
	for s := int(h >> (64 - p.bits)); ; s = (s + 1) & mask {
		e := p.table[s]
		if e == 0 {
			return nil
		}
		if e>>32 == h>>32 {
			m := p.Members(int(uint32(e)) - 1)
			if p.in.rowHasCells(m[0], p.positions, cells) {
				return m
			}
		}
	}
}

// rowHasCells reports whether the fact's cells at positions are cells.
func (in *Instance) rowHasCells(id FactID, positions []int, cells []Cell) bool {
	row := in.Row(id)
	for i, pos := range positions {
		if row.Cell(pos) != cells[i] {
			return false
		}
	}
	return true
}

// Partition returns the partition of relation rel on positions. It is
// memoised per (relation, positions) and shared by every caller; facts
// are append-only, so the memo holds until the fact count moves (an
// Insert invalidates it). Safe for concurrent use; callers must treat
// the result as read-only.
func (in *Instance) Partition(rel RelID, positions []int) *Partition {
	in.partMu.Lock()
	defer in.partMu.Unlock()
	if in.partsAt != in.nFacts || in.parts == nil {
		in.parts, in.partsAt = make([][]*Partition, len(in.byRel)), in.nFacts
	}
	for _, p := range in.parts[rel] {
		if slices.Equal(p.positions, positions) {
			return p
		}
	}
	p := in.buildPartition(rel, positions, ^uint64(0))
	in.parts[rel] = append(in.parts[rel], p)
	return p
}

// NumPartitions returns the number of partitions memoised for the
// current fact count.
func (in *Instance) NumPartitions() int {
	in.partMu.Lock()
	defer in.partMu.Unlock()
	n := 0
	if in.partsAt == in.nFacts {
		for _, ps := range in.parts {
			n += len(ps)
		}
	}
	return n
}

// buildPartition is the kernel. One pass over the relation, in
// ascending FactID, finds each fact's projection in the table: a new
// one opens the next group (so groups follow their smallest member),
// its slot naming the fact that opened it, against which every later
// tag hit is verified by cell equality. The table starts small and
// doubles when the groups fill half of it, except that a projection
// unique so far (every fact opened its own group: a key) grows to the
// relation's size at once: a key re-homes once, and a column with
// repeats — a join column, or a random one of many values — never
// allocates a table sized for the facts. A count, a prefix sum and a second pass
// lay the members out; last, the slots are renamed to groups, in a
// table cut to the groups' size when a key guess overshot. hashMask is
// applied to every hash (all ones in production; tests narrow it to
// force collisions).
func (in *Instance) buildPartition(rel RelID, positions []int, hashMask uint64) *Partition {
	// Fact ids[i] is row i of the relation's columns.
	rc := in.rels[rel]
	ids := rc.ids
	bits := uint(min(tableBits(len(ids)), 10))
	table := make([]uint64, 1<<bits)
	groupOf := make([]uint32, len(ids))
	groups := uint32(0)
	for i := range ids {
		h := rc.hashRowOn(i, positions, HashSeed) & hashMask
		for s := int(h >> (64 - bits)); ; s = (s + 1) & (len(table) - 1) {
			e := table[s]
			if e == 0 {
				table[s] = h>>32<<32 | uint64(i+1)
				groupOf[i] = groups
				if groups++; 2*int(groups) > len(table) {
					// A projection unique so far (a key) grows to its
					// final size at once; any other doubles.
					bits++
					if int(groups) == i+1 {
						bits = uint(tableBits(len(ids)))
					}
					table = rehome(table, bits)
				}
				break
			}
			if j := uint32(e) - 1; e>>32 == h>>32 && rc.equalRowsOn(int(j), i, positions) {
				groupOf[i] = groupOf[j]
				break
			}
		}
	}
	// offsets[g+1] counts g, then holds g's start; placing a member of
	// g bumps it, so it ends at g's end, which is g+1's start.
	offsets := make([]uint32, groups+1)
	for _, g := range groupOf {
		offsets[g+1]++
	}
	var sum uint32
	for g := 1; g < len(offsets); g++ {
		offsets[g], sum = sum, sum+offsets[g]
	}
	members := make([]FactID, len(ids))
	for i, id := range ids {
		g := groupOf[i]
		members[offsets[g+1]] = id
		offsets[g+1]++
	}
	for s, e := range table {
		if e != 0 {
			table[s] = e>>32<<32 | uint64(groupOf[uint32(e)-1]+1)
		}
	}
	if small := uint(tableBits(int(groups))); small < bits {
		table, bits = rehome(table, small), small
	}
	return &Partition{in: in, positions: slices.Clone(positions), offsets: offsets, members: members,
		table: table, bits: bits, hashMask: hashMask}
}

// rehome returns a table of 1<<bits slots holding the entries of table,
// each probed from the home slot of its stored top hash bits.
func rehome(table []uint64, bits uint) []uint64 {
	t := make([]uint64, 1<<bits)
	for _, e := range table {
		if e != 0 {
			s := int(e >> (64 - bits))
			for t[s] != 0 {
				s = (s + 1) & (len(t) - 1)
			}
			t[s] = e
		}
	}
	return t
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
