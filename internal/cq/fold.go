package cq

import "aggcavsat/internal/db"

// Folding the consistent part. Reduction IV.1 turns every witness made
// only of safe facts (facts present in every repair) into a constant,
// so an evaluation that knows which facts are safe need not
// materialize such witnesses at all: WitnessGroups aggregates them per
// group while the evaluator enumerates, and only the witnesses that
// touch a conflicting fact enter the bag.

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
