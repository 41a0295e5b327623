package cq

import (
	"errors"
	"fmt"
	"math"

	"aggcavsat/internal/db"
)

// AggOp enumerates the aggregation operators of the paper. COUNT(*),
// COUNT(A) and SUM(A) (plus their DISTINCT variants) are solved through
// (W)PMaxSAT reductions; MIN(A)/MAX(A) through iterative SAT. AVG(A) is
// supported only by the exhaustive baseline (open problem in the paper).
type AggOp int

const (
	CountStar AggOp = iota
	Count
	CountDistinct
	Sum
	SumDistinct
	Min
	Max
	Avg
)

func (op AggOp) String() string {
	switch op {
	case CountStar:
		return "COUNT(*)"
	case Count:
		return "COUNT"
	case CountDistinct:
		return "COUNT DISTINCT"
	case Sum:
		return "SUM"
	case SumDistinct:
		return "SUM DISTINCT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggOp(%d)", int(op))
	}
}

// ErrOverflow reports an integer aggregate (a SUM, or a weight or bound
// derived from one) that leaves the int64 range. Match with errors.Is.
var ErrOverflow = errors.New("integer aggregate overflows int64")

// AddInt64 returns a+b and whether the sum fits in an int64.
func AddInt64(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0)
}

// MulInt64 returns a·b and whether the product fits in an int64.
func MulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	// MinInt64 / -1 wraps back to MinInt64, so that pair needs its own
	// check.
	return p, p/b == a && !(b == -1 && a == math.MinInt64)
}

// NeedsVar reports whether the operator aggregates a specific attribute.
func (op AggOp) NeedsVar() bool { return op != CountStar }

// AggQuery is an aggregation query
//
//	SELECT Z, f(A) FROM T(U, Z, A) GROUP BY Z
//
// where T is the relation defined by the underlying union of conjunctive
// queries. GroupBy lists the grouping variables Z (empty for scalar
// queries); AggVar names A (ignored for COUNT(*)).
//
// Convention: the Underlying UCQ's head must be exactly GroupBy followed
// by AggVar (or just GroupBy for COUNT(*)); BuildHead arranges this.
type AggQuery struct {
	Op         AggOp
	AggVar     string
	GroupBy    []string
	Underlying UCQ
}

// BuildHead returns a copy of q whose underlying UCQ heads have the
// aggregation layout: the grouping variables followed by the aggregation
// variable (when the operator needs one).
//
// Heads are positional: if every disjunct already has a head of the
// expected arity, it is kept verbatim — this lets front ends (the SQL
// translator) use per-disjunct variable names. Otherwise the head is
// rebuilt from GroupBy and AggVar, which must then name variables bound
// in every disjunct.
func (q AggQuery) BuildHead() AggQuery {
	expected := len(q.GroupBy)
	if q.Op.NeedsVar() {
		expected++
	}
	ok := len(q.Underlying.Disjuncts) > 0
	for _, d := range q.Underlying.Disjuncts {
		if len(d.Head) != expected {
			ok = false
			break
		}
	}
	if ok {
		return q
	}
	head := append([]string(nil), q.GroupBy...)
	if q.Op.NeedsVar() {
		head = append(head, q.AggVar)
	}
	q.Underlying = q.Underlying.WithHead(head...)
	return q
}

// Scalar reports whether the query has no GROUP BY clause.
func (q AggQuery) Scalar() bool { return len(q.GroupBy) == 0 }

// Validate checks the query against a schema.
func (q AggQuery) Validate(schema *db.Schema) error {
	if q.Op.NeedsVar() && q.AggVar == "" {
		return fmt.Errorf("cq: %s requires an aggregation variable", q.Op)
	}
	qq := q.BuildHead()
	if err := qq.Underlying.Validate(schema); err != nil {
		return fmt.Errorf("cq: aggregation query: %w", err)
	}
	return nil
}

func (q AggQuery) String() string {
	if q.Op == CountStar {
		return fmt.Sprintf("SELECT %s FROM [%s] GROUP BY %v", q.Op, q.Underlying, q.GroupBy)
	}
	return fmt.Sprintf("SELECT %s(%s) FROM [%s] GROUP BY %v", q.Op, q.AggVar, q.Underlying, q.GroupBy)
}

// GroupValue is one group of a direct (single-instance) aggregation
// result: the grouping key and the aggregated value.
type GroupValue struct {
	Key   db.Tuple
	Value db.Value
}

// EvalAgg evaluates the aggregation query directly on the evaluator's
// instance (no repair semantics): standard SQL bag semantics over the
// witnessing assignments of the underlying query.
//
// Conventions: COUNT over an empty group is 0; SUM over an empty scalar
// result is 0 (matching the paper's reductions, where the empty repair
// contributes falsified weight 0); MIN/MAX/AVG over an empty scalar
// result yield a NULL value. For grouped queries, empty groups simply do
// not appear.
func EvalAgg(e *Evaluator, q AggQuery) ([]GroupValue, error) {
	q = q.BuildHead()
	if err := q.Validate(e.Instance().Schema()); err != nil {
		return nil, err
	}
	rows := e.EvalUCQ(q.Underlying)
	groups := map[string]*aggState{}
	var order []string
	positions := make([]int, len(q.GroupBy))
	for i := range positions {
		positions[i] = i
	}
	for _, r := range rows {
		key := r.Head[:len(q.GroupBy)]
		k := key.Key(positions)
		st, ok := groups[k]
		if !ok {
			st = &aggState{key: key.Clone(), distinct: map[string]bool{}}
			groups[k] = st
			order = append(order, k)
		}
		var aggVal db.Value
		if q.Op.NeedsVar() {
			aggVal = r.Head[len(q.GroupBy)]
		}
		st.add(q.Op, aggVal)
	}
	if q.Scalar() && len(groups) == 0 {
		st := &aggState{key: db.Tuple{}, distinct: map[string]bool{}}
		groups[""] = st
		order = append(order, "")
	}
	out := make([]GroupValue, 0, len(groups))
	for _, k := range order {
		st := groups[k]
		out = append(out, GroupValue{Key: st.key, Value: st.value(q.Op)})
	}
	sortGroupValues(out)
	return out, nil
}

type aggState struct {
	key      db.Tuple
	count    int64
	sum      int64
	fsum     float64
	isFloat  bool
	min, max db.Value
	distinct map[string]bool
	dsum     int64
	dfsum    float64
}

func (st *aggState) add(op AggOp, v db.Value) {
	switch op {
	case CountStar:
		st.count++
	case Count:
		if !v.IsNull() {
			st.count++
		}
	case CountDistinct:
		if !v.IsNull() {
			k := valueKey(v)
			if !st.distinct[k] {
				st.distinct[k] = true
				st.count++
			}
		}
	case Sum:
		if !v.IsNull() {
			st.count++
			st.addSum(v)
		}
	case SumDistinct:
		if !v.IsNull() {
			k := valueKey(v)
			if !st.distinct[k] {
				st.distinct[k] = true
				st.count++
				st.addSum(v)
			}
		}
	case Min:
		if !v.IsNull() && (st.min.IsNull() || v.Compare(st.min) < 0) {
			st.min = v
		}
	case Max:
		if !v.IsNull() && (st.max.IsNull() || v.Compare(st.max) > 0) {
			st.max = v
		}
	case Avg:
		if !v.IsNull() {
			st.count++
			st.addSum(v)
		}
	}
}

func (st *aggState) addSum(v db.Value) {
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

func (st *aggState) value(op AggOp) db.Value {
	switch op {
	case CountStar, Count, CountDistinct:
		return db.Int(st.count)
	case Sum, SumDistinct:
		if st.isFloat {
			return db.Float(st.fsum)
		}
		return db.Int(st.sum)
	case Min:
		return st.min
	case Max:
		return st.max
	case Avg:
		if st.count == 0 {
			return db.Null()
		}
		if st.isFloat {
			return db.Float(st.fsum / float64(st.count))
		}
		return db.Float(float64(st.sum) / float64(st.count))
	default:
		panic("cq: unknown aggregation operator")
	}
}

func valueKey(v db.Value) string {
	return db.Tuple{v}.Key([]int{0})
}

func sortGroupValues(out []GroupValue) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Key.Compare(out[j-1].Key) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}
