// Package exhaustive computes range consistent answers by brute force:
// it enumerates every repair of the inconsistent instance and aggregates
// over each. It is exponential and intended solely as ground truth for
// the SAT pipeline of internal/core in tests and benchmarks on small
// instances.
package exhaustive

import (
	"context"
	"fmt"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// MaxRepairs caps enumeration; exceeding it is an error rather than a
// runaway computation.
const MaxRepairs = 1 << 22

// RepairsKeys enumerates all subset repairs of the instance w.r.t. the
// key constraints of its schema: every key-equal group contributes
// exactly one fact. The callback receives a keep mask indexed by FactID;
// it must not retain the slice. Enumeration stops early if the callback
// returns false.
func RepairsKeys(in *db.Instance, visit func(keep []bool) bool) error {
	x := in.KeyEqualGroups()
	var total int64 = 1
	for g := 0; g < x.NumGroups(); g++ {
		total *= int64(len(x.Members(g)))
		if total > MaxRepairs {
			return fmt.Errorf("exhaustive: more than %d repairs", MaxRepairs)
		}
	}
	// Facts in no violating group are in every repair.
	keep := make([]bool, in.NumFacts())
	for f := range keep {
		keep[f] = x.Safe(db.FactID(f))
	}
	var rec func(g int) bool
	rec = func(g int) bool {
		if g == x.NumGroups() {
			return visit(keep)
		}
		for _, f := range x.Members(g) {
			keep[f] = true
			if !rec(g + 1) {
				keep[f] = false
				return false
			}
			keep[f] = false
		}
		return true
	}
	rec(0)
	return nil
}

// RepairsDCs enumerates all subset repairs w.r.t. a set of denial
// constraints, given the minimal violations: repairs are the maximal
// subsets containing no minimal violation. Facts outside every violation
// are always kept.
func RepairsDCs(in *db.Instance, violations []constraints.Violation, visit func(keep []bool) bool) error {
	// Collect the facts participating in violations.
	inViol := make([]bool, in.NumFacts())
	for _, v := range violations {
		for _, f := range v {
			inViol[f] = true
		}
	}
	var unsafe []db.FactID
	for f := 0; f < in.NumFacts(); f++ {
		if inViol[f] {
			unsafe = append(unsafe, db.FactID(f))
		}
	}
	if len(unsafe) > 22 {
		return fmt.Errorf("exhaustive: %d facts in violations; too many subsets", len(unsafe))
	}
	// Pre-translate violations into bitmasks over the unsafe facts.
	pos := map[db.FactID]int{}
	for i, f := range unsafe {
		pos[f] = i
	}
	masks := make([]uint64, len(violations))
	for i, v := range violations {
		var m uint64
		for _, f := range v {
			m |= 1 << uint(pos[f])
		}
		masks[i] = m
	}
	n := uint(len(unsafe))
	consistent := func(set uint64) bool {
		for _, m := range masks {
			if set&m == m {
				return false
			}
		}
		return true
	}
	// Collect consistent subsets, then filter to maximal ones.
	var consSets []uint64
	for set := uint64(0); set < 1<<n; set++ {
		if consistent(set) {
			consSets = append(consSets, set)
		}
	}
	keep := make([]bool, in.NumFacts())
	for f := 0; f < in.NumFacts(); f++ {
		keep[f] = !inViol[f]
	}
	for _, set := range consSets {
		maximal := true
		for b := uint(0); b < n; b++ {
			if set&(1<<b) == 0 && consistent(set|1<<b) {
				maximal = false
				break
			}
		}
		if !maximal {
			continue
		}
		for i, f := range unsafe {
			keep[f] = set&(1<<uint(i)) != 0
		}
		if !visit(keep) {
			break
		}
	}
	return nil
}

// GroupRange is a range consistent answer: a grouping key present in
// every repair, together with the glb and lub of the aggregate over all
// repairs. For scalar queries the key is the empty tuple.
//
// For MIN/MAX the endpoints range over the repairs with a non-empty
// result; EmptyPossible reports that some repair produced no rows (its
// MIN/MAX would be SQL NULL).
type GroupRange struct {
	Key           db.Tuple
	GLB           db.Value
	LUB           db.Value
	EmptyPossible bool
}

// Mode selects which constraints define the repairs.
type Mode int

const (
	// ModeKeys repairs with respect to the schema's key constraints.
	ModeKeys Mode = iota
	// ModeDCs repairs with respect to an explicit denial constraint set.
	ModeDCs
)

// Options configures RangeAnswers.
type Options struct {
	Mode Mode
	// DCs is consulted when Mode == ModeDCs.
	DCs []constraints.DC
}

// RangeAnswers computes the exact range consistent answers of the
// aggregation query by enumerating every repair (Fuxman-Fazli-Miller
// semantics for grouped queries: a group is an answer only if it appears
// in every repair).
func RangeAnswers(in *db.Instance, q cq.AggQuery, opts Options) ([]GroupRange, error) {
	q = q.BuildHead()
	if err := q.Validate(in.Schema()); err != nil {
		return nil, err
	}
	e := cq.NewEvaluator(in)
	groups, err := e.WitnessGroups(context.Background(), q.Underlying, len(q.GroupBy), nil)
	if err != nil {
		return nil, err
	}
	if q.Scalar() && len(groups) == 0 {
		// Scalar queries always produce one row per repair.
		groups = []cq.WitnessGroup{{Key: db.Tuple{}}}
	}
	// Per group: the number of repairs it appears in and its range.
	type groupAgg struct {
		seenIn        int64
		glb           db.Value
		lub           db.Value
		emptyPossible bool
	}
	aggs := make([]groupAgg, len(groups))
	var repairCount int64

	visit := func(keep []bool) bool {
		repairCount++
		for gi, g := range groups {
			// Aggregate the group's surviving witnesses, each standing
			// for Mult assignments.
			st := localAgg{distinct: map[string]bool{}}
			present := q.Scalar()
			for _, w := range g.Witnesses {
				alive := true
				for _, f := range w.Facts {
					if !keep[f] {
						alive = false
						break
					}
				}
				if !alive {
					continue
				}
				present = true
				var v db.Value
				if q.Op.NeedsVar() {
					v = w.Answer[0]
				}
				for range w.Mult {
					st.add(q.Op, v)
				}
			}
			if !present {
				continue
			}
			v := st.value(q.Op)
			a := &aggs[gi]
			if a.seenIn == 0 {
				a.glb, a.lub = v, v
			}
			a.seenIn++
			if v.IsNull() {
				// A repair with an empty result (MIN/MAX over nothing).
				a.emptyPossible = true
			} else {
				if a.glb.IsNull() || v.Compare(a.glb) < 0 {
					a.glb = v
				}
				if a.lub.IsNull() || v.Compare(a.lub) > 0 {
					a.lub = v
				}
			}
		}
		return true
	}

	switch opts.Mode {
	case ModeKeys:
		err = RepairsKeys(in, visit)
	case ModeDCs:
		violations := constraints.MinimalViolations(e, opts.DCs)
		err = RepairsDCs(in, violations, visit)
	default:
		err = fmt.Errorf("exhaustive: unknown mode %d", opts.Mode)
	}
	if err != nil {
		return nil, err
	}

	var out []GroupRange
	for gi, a := range aggs {
		if a.seenIn == repairCount { // consistent group: present in every repair
			out = append(out, GroupRange{Key: groups[gi].Key, GLB: a.glb, LUB: a.lub, EmptyPossible: a.emptyPossible})
		}
	}
	return out, nil
}

// localAgg mirrors cq's aggregation state for one repair.
type localAgg struct {
	count    int64
	sum      int64
	fsum     float64
	isFloat  bool
	min, max db.Value
	distinct map[string]bool
}

func (st *localAgg) add(op cq.AggOp, v db.Value) {
	switch op {
	case cq.CountStar:
		st.count++
	case cq.Count:
		if !v.IsNull() {
			st.count++
		}
	case cq.CountDistinct:
		if !v.IsNull() {
			k := db.Tuple{v}.Key([]int{0})
			if !st.distinct[k] {
				st.distinct[k] = true
				st.count++
			}
		}
	case cq.Sum, cq.Avg:
		if !v.IsNull() {
			st.count++
			st.addSum(v)
		}
	case cq.SumDistinct:
		if !v.IsNull() {
			k := db.Tuple{v}.Key([]int{0})
			if !st.distinct[k] {
				st.distinct[k] = true
				st.count++
				st.addSum(v)
			}
		}
	case cq.Min:
		if !v.IsNull() && (st.min.IsNull() || v.Compare(st.min) < 0) {
			st.min = v
		}
	case cq.Max:
		if !v.IsNull() && (st.max.IsNull() || v.Compare(st.max) > 0) {
			st.max = v
		}
	}
}

func (st *localAgg) addSum(v db.Value) {
	if v.Kind() == db.KindFloat {
		st.isFloat = true
	}
	if st.isFloat {
		st.fsum += float64(st.sum) + v.AsFloat()
		st.sum = 0
	} else {
		st.sum += v.AsInt()
	}
}

func (st *localAgg) value(op cq.AggOp) db.Value {
	switch op {
	case cq.CountStar, cq.Count, cq.CountDistinct:
		return db.Int(st.count)
	case cq.Sum, cq.SumDistinct:
		if st.isFloat {
			return db.Float(st.fsum)
		}
		return db.Int(st.sum)
	case cq.Min:
		return st.min
	case cq.Max:
		return st.max
	case cq.Avg:
		if st.count == 0 {
			return db.Null()
		}
		if st.isFloat {
			return db.Float(st.fsum / float64(st.count))
		}
		return db.Float(float64(st.sum) / float64(st.count))
	default:
		panic("exhaustive: unknown aggregation operator")
	}
}
