package cq

import (
	"context"
	"slices"

	"aggcavsat/internal/db"
)

// Folding the consistent part. Reduction IV.1 turns every witness made
// only of safe facts (facts present in every repair) into a constant,
// so an evaluation that knows which facts are safe need not
// materialize such witnesses at all: FoldedBagCtx aggregates them per
// group while the evaluator enumerates, and only the witnesses that
// touch a conflicting fact become Rows and Witnesses.

// Fold aggregates the all-safe witnessing assignments of one group.
// The aggregated value of an assignment is its head value right after
// the group key, when the head has one (COUNT(A), SUM(A)).
type Fold struct {
	Rows    int64 // folded assignments
	NonNull int64 // … whose aggregated value is non-NULL
	Sum     int64 // sum of the integer aggregated values
	// Overflow reports that Sum left the int64 range; Sum is then
	// meaningless.
	Overflow bool
	// NonInt is the first non-NULL, non-integer aggregated value in
	// enumeration order, NULL when there is none.
	NonInt db.Value
}

func (f *Fold) addValue(v db.Value) {
	if v.IsNull() {
		return
	}
	f.NonNull++
	if v.Kind() == db.KindInt {
		f.addSum(v.AsInt())
	} else if f.NonInt.IsNull() {
		f.NonInt = v
	}
}

func (f *Fold) addSum(n int64) {
	var ok bool
	if f.Sum, ok = AddInt64(f.Sum, n); !ok {
		f.Overflow = true
	}
}

func (f *Fold) merge(o Fold) {
	f.Rows += o.Rows
	f.NonNull += o.NonNull
	f.addSum(o.Sum)
	f.Overflow = f.Overflow || o.Overflow
	if f.NonInt.IsNull() {
		f.NonInt = o.NonInt
	}
}

// GroupFold is the fold of one group, keyed by the group's head values.
type GroupFold struct {
	Key db.Tuple
	Fold
}

// foldSet holds folds keyed by group under the exact equivalence of
// CollectWitnesses and GroupWitnesses, in first-sight order: hash
// buckets verified exactly, so Int(1) and Float(1) are distinct groups.
// A set is keyed either by Values (index: HashExact, EqualExact) or, in
// the evaluator, by cells (atCells: HashCell, cell equality), which is
// the same equivalence within one instance.
type foldSet struct {
	list   []GroupFold
	cells  []db.Cell        // cell-keyed sets: list[i]'s key cells, one arity each
	byHash map[uint64]int32 // newest fold of each hash chain
	next   []int32          // older fold of the same chain, -1 ends it
}

// find returns the position in list of the fold in h's chain that same
// accepts, or -1.
func (s *foldSet) find(h uint64, same func(i int) bool) int {
	head, ok := s.byHash[h]
	if !ok {
		return -1
	}
	for i := head; i >= 0; i = s.next[i] {
		if same(int(i)) {
			return int(i)
		}
	}
	return -1
}

// push appends an empty fold keyed by key to h's chain and returns its
// position in list.
func (s *foldSet) push(h uint64, key db.Tuple) int {
	head, ok := s.byHash[h]
	if !ok {
		head = -1
	}
	if s.byHash == nil {
		s.byHash = make(map[uint64]int32)
	}
	s.byHash[h] = int32(len(s.list))
	s.next = append(s.next, head)
	s.list = append(s.list, GroupFold{Key: key})
	return len(s.list) - 1
}

// index returns the position of key's group in list, appending an
// empty fold (with a copy of key) on first sight.
func (s *foldSet) index(key db.Tuple) int {
	h := key.HashExact(db.HashSeed)
	if i := s.find(h, func(i int) bool { return s.list[i].Key.EqualExact(key) }); i >= 0 {
		return i
	}
	return s.push(h, key.Clone())
}

// at returns the fold of key, adding an empty one on first sight.
func (s *foldSet) at(key db.Tuple) *Fold {
	return &s.list[s.index(key)].Fold
}

// atCells is at for a cell-keyed set: the group's Key tuple is decoded
// from key through d once, on first sight.
func (s *foldSet) atCells(d *db.Dict, key []db.Cell) *Fold {
	h := db.HashSeed
	for _, c := range key {
		h = db.HashCell(h, c)
	}
	n := len(key)
	i := s.find(h, func(i int) bool { return slices.Equal(s.cells[i*n:(i+1)*n], key) })
	if i < 0 {
		t := make(db.Tuple, n)
		for j, c := range key {
			t[j] = d.CellValue(c)
		}
		i = s.push(h, t)
		s.cells = append(s.cells, key...)
	}
	return &s.list[i].Fold
}

// FoldedBagCtx is WitnessBagCtx with the consistent part folded: every
// witnessing assignment whose facts all pass safe is aggregated into
// its group's fold (the group is the first groupArity head values)
// instead of becoming a witness. It returns the bag of the remaining
// witnesses and the folds in first-assignment order, both independent
// of the parallelism setting. A nil safe folds nothing.
func (e *Evaluator) FoldedBagCtx(ctx context.Context, u UCQ, safe func(db.FactID) bool, groupArity int) ([]Witness, []GroupFold, error) {
	var fs *foldSpec
	if safe != nil {
		fs = &foldSpec{safe: safe, arity: groupArity}
	}
	res, err := e.runUCQ(ctx, u, fs)
	if err != nil {
		return nil, nil, err
	}
	return CollectWitnesses(res.rows), res.folds.list, nil
}
