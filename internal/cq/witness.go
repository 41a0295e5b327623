package cq

import (
	"context"
	"math"
	"slices"

	"aggcavsat/internal/db"
)

// Witness is one element of the bag of witnesses of a query: a set of
// facts supporting an answer, its multiplicity (the number of witnessing
// assignments producing exactly this fact set and answer), and the answer
// tuple it supports.
type Witness struct {
	Facts  []db.FactID // sorted ascending, deduplicated
	Answer db.Tuple    // values of the query head for this witness
	Mult   int64
}

// WitnessGroup is the witness bag restricted to one value of the grouping
// attributes, plus the fold of its all-safe assignments when the bag
// was folded (zero otherwise).
type WitnessGroup struct {
	Key       db.Tuple
	Witnesses []Witness
	Fold      Fold
}

// WitnessGroups evaluates u into its bag of witnesses, grouped by the
// first arity head values. The bag is built as the evaluator
// enumerates: an assignment's (fact set, answer) is looked up in the
// run's witness table and a repeat only bumps its Mult, and its group
// comes from the run's group table. Both tables are keyed exactly
// (Int(1) and Float(1) are different answers and different groups).
//
// With a non-nil safe, every witnessing assignment whose facts all pass
// safe is aggregated into its group's Fold instead of becoming a
// witness (the consistent part of Reduction IV.1); a group exists for
// every key that has witnesses or a fold.
//
// Groups come back ordered by key, and each group's Witnesses by fact
// set, then answer; ties between Compare-equal values that are not
// exactly equal are broken by kind, then payload, so both orders are
// total and independent of the parallelism setting. A group's
// Witnesses is a sub-slice of the one sorted bag, and each witness's
// Answer holds the head values after the group key.
func (e *Evaluator) WitnessGroups(ctx context.Context, u UCQ, arity int, safe func(db.FactID) bool) ([]WitnessGroup, error) {
	var b bag
	for _, q := range u.Disjuncts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := e.program(q)
		if arity > len(p.headSlots) {
			panic("cq: group arity exceeds the head")
		}
		if err := e.runProgram(ctx, p, &b, foldSpec{safe: safe, arity: arity}); err != nil {
			return nil, err
		}
	}
	return b.sorted(arity), nil
}

// WitnessBag computes the bag of witnesses of a UCQ: WitnessGroups with
// no grouping and no fold, sorted by fact set, then answer.
func (e *Evaluator) WitnessBag(u UCQ) []Witness {
	bag, _ := e.WitnessBagCtx(context.Background(), u) // Background never cancels
	return bag
}

// WitnessBagCtx is WitnessBag with cooperative cancellation: the
// evaluator polls ctx once per evalCancelStride candidates, counted at
// every join depth, and returns ctx.Err() when it fires.
func (e *Evaluator) WitnessBagCtx(ctx context.Context, u UCQ) ([]Witness, error) {
	groups, err := e.WitnessGroups(ctx, u, 0, nil)
	if err != nil || len(groups) == 0 {
		return nil, err
	}
	return groups[0].Witnesses, nil
}

// bag is the witness bag of one evaluation, or of one parallel chunk of
// it, in first-sight order: ws[i]'s group is group[i], and the witness
// table finds i by the hash of its fact set and head cells. The group
// table holds the groups' keys (decoded once, on first sight, into a
// slab), their key cells and their folds.
type bag struct {
	ws    []Witness
	group []int32
	index hashIndex

	groups     []WitnessGroup
	groupCells []db.Cell
	groupIndex hashIndex
	keys       []db.Value // slab the group keys are carved from
}

// add records one occurrence of the witness (facts, head) — the fact
// set sorted and deduplicated — and returns its position and whether
// it is new. A hit is verified exactly: the fact sets equal and each
// stored answer value exactly equal to the decoded head cell. A new
// witness is appended with Mult 0 and without its Facts and Answer,
// which the caller fills in; its group is recorded.
func (b *bag) add(d *db.Dict, facts []db.FactID, head []db.Cell, arity int) (int, bool) {
	h := db.HashFactSet(facts)
	for _, c := range head {
		h = db.HashCell(h, c)
	}
	i, seen := b.index.lookup(h, func(i int) bool {
		w := &b.ws[i]
		if !slices.Equal(w.Facts, facts) {
			return false
		}
		for j, c := range head {
			if !w.Answer[j].EqualExact(d.CellValue(c)) {
				return false
			}
		}
		return true
	})
	if !seen {
		b.group = append(b.group, int32(b.groupAt(d, head[:arity], nil)))
		b.ws = append(b.ws, Witness{})
	}
	return i, !seen
}

// groupAt returns the position of the group with key cells key, adding
// it on first sight with the key decoded through d (or taken from
// decoded, when non-nil).
func (b *bag) groupAt(d *db.Dict, key []db.Cell, decoded db.Tuple) int {
	h := db.HashSeed
	for _, c := range key {
		h = db.HashCell(h, c)
	}
	n := len(key)
	g, seen := b.groupIndex.lookup(h, func(g int) bool { return slices.Equal(b.groupCells[g*n:(g+1)*n], key) })
	if !seen {
		if decoded == nil {
			decoded = decode(d, &b.keys, key)
		}
		b.groups = append(b.groups, WitnessGroup{Key: decoded})
		b.groupCells = append(b.groupCells, key...)
	}
	return g
}

// merge adds the chunk bag src to b: its groups first, in their
// first-sight order, folds summed, then its witnesses, a witness both
// hold summing its multiplicities. Merging chunks in chunk order gives
// b the groups, folds and witnesses of one sequential run.
func (b *bag) merge(d *db.Dict, src *bag, arity int) {
	at := make([]int32, len(src.groups)) // src group → b group
	for g := range src.groups {
		sg := &src.groups[g]
		at[g] = int32(b.groupAt(d, src.groupCells[g*arity:(g+1)*arity], sg.Key))
		b.groups[at[g]].Fold.merge(sg.Fold)
	}
	for i, w := range src.ws {
		j, seen := b.index.lookup(src.index.hashes[i], func(j int) bool {
			return slices.Equal(b.ws[j].Facts, w.Facts) && b.ws[j].Answer.EqualExact(w.Answer)
		})
		if seen {
			b.ws[j].Mult += w.Mult
			continue
		}
		b.group = append(b.group, at[src.group[i]])
		b.ws = append(b.ws, w)
	}
}

// reserve makes room for n more witnesses without growing.
func (b *bag) reserve(n int) {
	b.ws = slices.Grow(b.ws, n)
	b.group = slices.Grow(b.group, n)
	b.index.reserve(n)
}

// sorted sorts the bag once — by group, then fact set, then answer —
// and returns the groups in key order, each holding its sub-slice of
// the bag with the answers resliced past the group key.
func (b *bag) sorted(arity int) []WitnessGroup {
	if len(b.groups) == 0 {
		return nil
	}
	order := make([]int32, len(b.groups))
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(x, y int32) int { return compareExact(b.groups[x].Key, b.groups[y].Key) })
	// off[r+1] counts rank r's witnesses, then holds its start; each
	// witness's destination bumps it, so it ends at r's end.
	rank := make([]int32, len(order))
	for r, g := range order {
		rank[g] = int32(r)
	}
	off := make([]int32, len(order)+1)
	for _, g := range b.group {
		off[rank[g]+1]++
	}
	var sum int32
	for r := 1; r < len(off); r++ {
		off[r], sum = sum, sum+off[r]
	}
	dest := b.group // each witness's slot, in place of its group
	for i, g := range dest {
		r := rank[g]
		dest[i] = off[r+1]
		off[r+1]++
	}
	// Move every witness to its slot, one cycle of the permutation at a
	// time, then sort each group's run.
	for i := range dest {
		for d := dest[i]; d != int32(i); d = dest[i] {
			b.ws[i], b.ws[d] = b.ws[d], b.ws[i]
			dest[i], dest[d] = dest[d], d
		}
	}
	out := make([]WitnessGroup, len(order))
	for r, g := range order {
		run := b.ws[off[r]:off[r+1]:off[r+1]]
		slices.SortFunc(run, compareWitnesses)
		for i := range run {
			run[i].Answer = run[i].Answer[arity:]
		}
		out[r] = b.groups[g]
		out[r].Witnesses = run
	}
	return out
}

// compareWitnesses orders witnesses by fact set, then answer
// (compareExact).
func compareWitnesses(a, b Witness) int {
	if c := compareFactSets(a.Facts, b.Facts); c != 0 {
		return c
	}
	return compareExact(a.Answer, b.Answer)
}

// compareExact orders tuples by Tuple.Compare, breaking its ties
// between values that are not exactly equal (Int(1) and Float(1), -0.0
// and 0.0) by kind, then float bits: a total order on exactly distinct
// tuples of one length.
func compareExact(a, b db.Tuple) int {
	if c := a.Compare(b); c != 0 {
		return c
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind() != y.Kind() {
			if x.Kind() < y.Kind() {
				return -1
			}
			return 1
		}
		if x.Kind() == db.KindFloat {
			if bx, by := math.Float64bits(x.AsFloat()), math.Float64bits(y.AsFloat()); bx != by {
				if bx < by {
					return -1
				}
				return 1
			}
		}
	}
	return 0
}

// hashIndex is an open-addressing table over the positions 0, 1, … of
// a list: a slot holds a position plus one (0 is empty), probed
// linearly from the top bits of its hash. hashes[i] is position i's
// hash, so a probe compares hashes before verifying, and growing
// rehashes nothing.
type hashIndex struct {
	slots  []int32
	hashes []uint64
	bits   uint
}

// lookup returns the position whose hash is h and which same accepts,
// and true; or, when there is none, the next position, now indexed
// under h, and false.
func (t *hashIndex) lookup(h uint64, same func(i int) bool) (int, bool) {
	if t.slots == nil {
		t.bits = 4
		t.slots = make([]int32, 1<<t.bits)
	}
	mask := len(t.slots) - 1
	for s := int(h >> (64 - t.bits)); ; s = (s + 1) & mask {
		e := t.slots[s]
		if e == 0 {
			i := len(t.hashes)
			t.slots[s] = int32(i + 1)
			t.hashes = append(t.hashes, h)
			if 2*len(t.hashes) > len(t.slots) {
				t.grow()
			}
			return i, false
		}
		if i := int(e - 1); t.hashes[i] == h && same(i) {
			return i, true
		}
	}
}

// reserve sizes the table for n more positions at a load of at most
// one half.
func (t *hashIndex) reserve(n int) {
	bits := max(t.bits, 4)
	for 2*(len(t.hashes)+n) > 1<<bits {
		bits++
	}
	if len(t.slots) < 1<<bits {
		t.bits = bits - 1
		t.grow()
	}
	t.hashes = slices.Grow(t.hashes, n)
}

// grow doubles the table, re-homing every position by its stored hash.
func (t *hashIndex) grow() {
	t.bits++
	t.slots = make([]int32, 1<<t.bits)
	mask := len(t.slots) - 1
	for i, h := range t.hashes {
		s := int(h >> (64 - t.bits))
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(i + 1)
	}
}

// compareFactSets orders sorted fact sets lexicographically, a proper
// prefix first.
func compareFactSets(a, b []db.FactID) int { return slices.Compare(a, b) }

// MinimalWitnesses filters the bag down to minimal witnesses per answer:
// a witness is dropped when another witness with the same answer uses a
// proper subset of its facts. Multiplicities of dropped witnesses are
// discarded (the DISTINCT reductions only need existence, not counts).
func MinimalWitnesses(bag []Witness) []Witness {
	byAnswer := map[string][]Witness{}
	var answerOrder []string
	var headPos []int
	for _, w := range bag {
		if len(headPos) != len(w.Answer) {
			headPos = headPos[:0]
			for i := range w.Answer {
				headPos = append(headPos, i)
			}
		}
		k := w.Answer.Key(headPos)
		if _, ok := byAnswer[k]; !ok {
			answerOrder = append(answerOrder, k)
		}
		byAnswer[k] = append(byAnswer[k], w)
	}
	var out []Witness
	for _, k := range answerOrder {
		group := byAnswer[k]
		for i, w := range group {
			minimal := true
			for j, other := range group {
				if i == j {
					continue
				}
				if len(other.Facts) < len(w.Facts) && isSubset(other.Facts, w.Facts) {
					minimal = false
					break
				}
				// Equal sets: keep the first occurrence only.
				if j < i && len(other.Facts) == len(w.Facts) && isSubset(other.Facts, w.Facts) {
					minimal = false
					break
				}
			}
			if minimal {
				out = append(out, w)
			}
		}
	}
	slices.SortFunc(out, compareWitnesses)
	return out
}

// isSubset reports whether sorted slice a ⊆ sorted slice b.
func isSubset(a, b []db.FactID) bool {
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
