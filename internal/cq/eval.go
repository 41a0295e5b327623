package cq

import (
	"sync"

	"aggcavsat/internal/db"
)

// Evaluator evaluates conjunctive queries over a fixed instance, caching
// compiled plans across queries; its join probes read the instance's
// memoised partitions (db.Instance.Partition), so every evaluator of an
// instance shares them. It is safe for concurrent use: the plan cache
// is guarded by a mutex (double-checked), and a built plan is immutable
// thereafter, so engine worker pools may evaluate queries on one shared
// evaluator.
//
// Queries run through a compiled slot-based program (see compile.go).
type Evaluator struct {
	in *db.Instance

	planMu sync.RWMutex
	plans  map[string]*program

	par int // worker budget for parallel first-atom enumeration
}

// NewEvaluator creates an evaluator over the instance.
func NewEvaluator(in *db.Instance) *Evaluator {
	return &Evaluator{in: in, plans: make(map[string]*program)}
}

// Instance returns the instance being evaluated.
func (e *Evaluator) Instance() *db.Instance { return e.in }

// SetParallelism sets the worker budget for partitioning the first
// atom's candidate list across goroutines (0 or 1 = sequential). It
// must be called before the evaluator is shared across goroutines.
func (e *Evaluator) SetParallelism(n int) { e.par = n }

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
