package cq

import (
	"context"
	"sort"
	"sync"

	"aggcavsat/internal/db"
)

// Row is one witnessing assignment of a conjunctive query: the values of
// the head variables and the (sorted, deduplicated) set of facts used.
type Row struct {
	Head  db.Tuple
	Facts []db.FactID
}

// Evaluator evaluates conjunctive queries over a fixed instance, caching
// compiled plans and hash indexes across queries. It is safe for
// concurrent use: the lazy caches are guarded by mutexes
// (double-checked), and a built index or plan is immutable thereafter,
// so engine worker pools may evaluate queries on one shared evaluator.
//
// Queries run through a compiled slot-based program (see compile.go).
type Evaluator struct {
	in *db.Instance

	mu      sync.RWMutex
	hashIdx map[indexKey]*hashIndex

	planMu sync.RWMutex
	plans  map[string]*program

	par int // worker budget for parallel first-atom enumeration
}

// NewEvaluator creates an evaluator over the instance.
func NewEvaluator(in *db.Instance) *Evaluator {
	return &Evaluator{
		in:      in,
		hashIdx: make(map[indexKey]*hashIndex),
		plans:   make(map[string]*program),
	}
}

// Instance returns the instance being evaluated.
func (e *Evaluator) Instance() *db.Instance { return e.in }

// SetParallelism sets the worker budget for partitioning the first
// atom's candidate list across goroutines (0 or 1 = sequential). It
// must be called before the evaluator is shared across goroutines.
func (e *Evaluator) SetParallelism(n int) { e.par = n }

// Eval returns all witnessing assignments of q on the instance, one Row
// per assignment (a bag: rows may repeat with identical head values and
// even identical fact sets).
func (e *Evaluator) Eval(q CQ) []Row {
	rows, _ := e.EvalCtx(context.Background(), q) // Background never cancels
	return rows
}

// EvalCtx is Eval with cooperative cancellation: the parallel and
// sequential compiled runners poll ctx between first-atom candidates
// and return ctx.Err() when it fires. The row order is deterministic
// and independent of the parallelism setting.
func (e *Evaluator) EvalCtx(ctx context.Context, q CQ) ([]Row, error) {
	return e.EvalUCQCtx(ctx, Single(q))
}

// EvalUCQ evaluates a union of conjunctive queries, concatenating the
// witnessing assignments of all disjuncts (bag union).
func (e *Evaluator) EvalUCQ(u UCQ) []Row {
	rows, _ := e.EvalUCQCtx(context.Background(), u)
	return rows
}

// EvalUCQCtx is EvalUCQ with cooperative cancellation.
func (e *Evaluator) EvalUCQCtx(ctx context.Context, u UCQ) ([]Row, error) {
	res, err := e.runUCQ(ctx, u, nil)
	return res.rows, err
}

// runUCQ runs every disjunct and merges their results in disjunct
// order (bag union); fs, when non-nil, folds the all-safe assignments.
func (e *Evaluator) runUCQ(ctx context.Context, u UCQ, fs *foldSpec) (runResult, error) {
	per := make([]runResult, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		if err := ctx.Err(); err != nil {
			return runResult{}, err
		}
		res, err := e.runProgram(ctx, e.program(q), fs)
		if err != nil {
			return runResult{}, err
		}
		per[i] = res
	}
	return mergeResults(e.in.Dict(), per), nil
}

// plan describes the atom evaluation order plus, for each step, the
// conditions that become fully bound after binding that atom.
type plan struct {
	order      []int   // atom indexes in evaluation order
	condsAfter [][]int // condition indexes checkable after step i
}

// planCQ orders atoms greedily: prefer atoms with many bound positions
// (constants or already-bound variables), breaking ties by smaller
// relation cardinality; conditions are attached to the earliest step at
// which all their variables are bound.
func planCQ(in *db.Instance, q CQ) plan {
	n := len(q.Atoms)
	used := make([]bool, n)
	bound := map[string]bool{}
	var order []int
	for len(order) < n {
		best, bestBound, bestSize := -1, -1, 0
		for i, a := range q.Atoms {
			if used[i] {
				continue
			}
			nb := 0
			for _, t := range a.Args {
				if t.IsConst || bound[t.Var] {
					nb++
				}
			}
			size := in.RelSize(a.Rel)
			if best == -1 || nb > bestBound || (nb == bestBound && size < bestSize) {
				best, bestBound, bestSize = i, nb, size
			}
		}
		used[best] = true
		order = append(order, best)
		for _, t := range q.Atoms[best].Args {
			if !t.IsConst {
				bound[t.Var] = true
			}
		}
	}
	// Attach conditions to the first step where all their vars are bound,
	// reusing the scratch map from the ordering pass.
	condsAfter := make([][]int, n)
	assigned := make([]bool, len(q.Conds))
	clear(bound)
	for step, ai := range order {
		for _, t := range q.Atoms[ai].Args {
			if !t.IsConst {
				bound[t.Var] = true
			}
		}
		for ci, c := range q.Conds {
			if assigned[ci] {
				continue
			}
			ok := true
			for _, t := range []Term{c.Left, c.Right} {
				if !t.IsConst && !bound[t.Var] {
					ok = false
				}
			}
			if ok {
				condsAfter[step] = append(condsAfter[step], ci)
				assigned[ci] = true
			}
		}
	}
	return plan{order: order, condsAfter: condsAfter}
}

// DistinctAnswers deduplicates the head tuples of rows, returning them in
// a deterministic (sorted) order.
func DistinctAnswers(rows []Row) []db.Tuple {
	seen := map[string]db.Tuple{}
	positions := []int{}
	for _, r := range rows {
		if len(positions) != len(r.Head) {
			positions = positions[:0]
			for i := range r.Head {
				positions = append(positions, i)
			}
		}
		k := r.Head.Key(positions)
		if _, ok := seen[k]; !ok {
			seen[k] = r.Head
		}
	}
	out := make([]db.Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
