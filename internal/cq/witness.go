package cq

import (
	"context"
	"slices"
	"sort"

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

// WitnessBag computes the bag of witnesses of a UCQ: rows are grouped by
// (fact set, answer) and their multiplicities accumulated. The result is
// deterministic (sorted by fact set, then answer).
func (e *Evaluator) WitnessBag(u UCQ) []Witness {
	rows := e.EvalUCQ(u)
	return CollectWitnesses(rows)
}

// WitnessBagCtx is WitnessBag with cooperative cancellation of the
// underlying (possibly parallel) evaluation.
func (e *Evaluator) WitnessBagCtx(ctx context.Context, u UCQ) ([]Witness, error) {
	rows, err := e.EvalUCQCtx(ctx, u)
	if err != nil {
		return nil, err
	}
	return CollectWitnesses(rows), nil
}

// CollectWitnesses groups witnessing-assignment rows into a witness bag.
// Groups are keyed by a uint64 hash of (fact set, answer) with exact
// verification inside each bucket, so a hash collision costs a
// comparison, never a miscount. The grouping equivalence is kind-exact
// on the answer (Int(1) and Float(1) are distinct answers), like the
// Tuple.Key string grouping it replaces.
func CollectWitnesses(rows []Row) []Witness {
	out := make([]Witness, 0, len(rows))
	byHash := make(map[uint64]int32, len(rows)) // newest witness of each hash chain
	next := make([]int32, 0, len(rows))         // older witness of the chain, -1 ends it
	for i := range rows {
		r := &rows[i]
		h := r.Head.HashExact(db.HashFactSet(r.Facts))
		head, ok := byHash[h]
		if !ok {
			head = -1
		}
		found := int32(-1)
		for j := head; j >= 0; j = next[j] {
			if w := &out[j]; w.Answer.EqualExact(r.Head) && compareFactSets(w.Facts, r.Facts) == 0 {
				found = j
				break
			}
		}
		if found >= 0 {
			out[found].Mult++
			continue
		}
		byHash[h] = int32(len(out))
		next = append(next, head)
		out = append(out, Witness{Facts: r.Facts, Answer: r.Head, Mult: 1})
	}
	slices.SortFunc(out, func(a, b Witness) int {
		if c := compareFactSets(a.Facts, b.Facts); c != 0 {
			return c
		}
		return a.Answer.Compare(b.Answer)
	})
	return out
}

func compareFactSets(a, b []db.FactID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

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
	sort.Slice(out, func(i, j int) bool {
		if c := compareFactSets(out[i].Facts, out[j].Facts); c != 0 {
			return c < 0
		}
		return out[i].Answer.Compare(out[j].Answer) < 0
	})
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

// GroupWitnesses partitions a witness bag by a prefix of the answer tuple
// (the grouping attributes), preserving witness order inside each group.
// The remaining answer suffix (e.g. the aggregation attribute) stays in
// each witness's Answer. Groups come back sorted by group key.
func GroupWitnesses(bag []Witness, groupArity int) []WitnessGroup {
	return GroupFolded(bag, nil, groupArity)
}

// GroupFolded is GroupWitnesses over a folded bag (FoldedBagCtx): a
// group exists for every key that has witnesses or a fold, and carries
// both. Keys are matched under the exact equivalence of
// CollectWitnesses (HashExact buckets, EqualExact), never by Compare:
// Int(1) and Float(1) are different groups. Groups with Compare-equal
// keys keep folds-then-witnesses first-appearance order.
func GroupFolded(bag []Witness, folds []GroupFold, groupArity int) []WitnessGroup {
	if groupArity == 0 {
		// One group, keyed by the empty tuple, holding the bag as is.
		if len(bag) == 0 && len(folds) == 0 {
			return nil
		}
		g := WitnessGroup{Key: db.Tuple{}, Witnesses: bag}
		for _, gf := range folds {
			g.Fold.merge(gf.Fold)
		}
		return []WitnessGroup{g}
	}
	var keys foldSet
	for _, gf := range folds {
		keys.at(gf.Key).merge(gf.Fold)
	}
	of := make([]int32, len(bag))
	for i, w := range bag {
		of[i] = int32(keys.index(w.Answer[:groupArity]))
	}
	// Order the groups by key, sorting indexes rather than groups, and
	// lay them out in that order: rank is each group's position.
	order := make([]int32, len(keys.list))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return keys.list[a].Key.Compare(keys.list[b].Key) })
	rank := make([]int32, len(order))
	for r, gi := range order {
		rank[gi] = int32(r)
	}
	counts := make([]int, len(order))
	for _, gi := range of {
		counts[rank[gi]]++
	}
	// One backing array for every group's witnesses, carved in group
	// order and capped per group.
	backing := make([]Witness, len(bag))
	out := make([]WitnessGroup, len(order))
	lo := 0
	for r, gi := range order {
		gf := &keys.list[gi]
		out[r] = WitnessGroup{Key: gf.Key, Witnesses: backing[lo : lo : lo+counts[r]], Fold: gf.Fold}
		lo += counts[r]
	}
	for i, w := range bag {
		g := &out[rank[of[i]]]
		g.Witnesses = append(g.Witnesses, Witness{Facts: w.Facts, Answer: w.Answer[groupArity:], Mult: w.Mult})
	}
	return out
}

// WitnessGroup is the witness bag restricted to one value of the grouping
// attributes, plus the fold of its all-safe assignments when the bag
// was folded (zero otherwise).
type WitnessGroup struct {
	Key       db.Tuple
	Witnesses []Witness
	Fold      Fold
}
