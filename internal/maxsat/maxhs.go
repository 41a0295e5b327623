package maxsat

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/sat"
)

// solveMaxHS implements the implicit-hitting-set MaxSAT algorithm of
// Davies & Bacchus — the algorithm of the MaxHS solver the paper runs:
//
//  1. Relax soft clauses into selectors with their (immutable) weights.
//  2. Compute a minimum-weight hitting set H of the cores found so far
//     and ask the SAT solver for a model satisfying every selector
//     outside H.
//  3. SAT → the model is optimal (it falsifies at most weight(H), and
//     every solution must pay at least the optimal hitting set).
//     UNSAT → extract and trim a new core, add it to the collection,
//     repeat.
//
// Unlike core-guided search (solveRC2), weights are never split, so the
// algorithm is immune to the weight-diversity death spiral on SUM
// instances whose weights are prices. The hitting-set subproblems are
// solved exactly by branch and bound over the connected clusters of
// overlapping cores — for the repair structures produced by the
// reductions, most cores are disjoint and the clusters stay small.
// MaxHS proper delegates this to an ILP solver (CPLEX).
//
// The solver comes from p.fork(); MaxHS only ever solves it under
// assumptions.
func solveMaxHS(ctx context.Context, p *problem, opts Options, tr *tracker) (Result, error) {
	s := p.fork()
	if !s.Okay() {
		return Result{Satisfiable: false}, nil
	}
	if opts.ConflictBudget > 0 {
		s.SetConflictBudget(opts.ConflictBudget)
	}
	release := sat.StopOnDone(ctx, s)
	defer release()
	weights := p.weights
	all := sortedSelectors(weights)
	tr.attach(AlgMaxHS, s)

	hs := newHittingSets(weights)
	if opts.HSNodeBudget > 0 {
		hs.nodeBudget = opts.HSNodeBudget
	}
	needExact := false
	// Scratch buffers reused across every SAT call: the inner loop used
	// to allocate a fresh O(#selectors) assumptions slice and excluded
	// map per call, which dominated allocation on large components.
	assumptions := make([]cnf.Lit, 0, len(all))
	excluded := make(map[cnf.Lit]bool, len(all))
	for {
		if err := interrupted(ctx); err != nil {
			return statsOf(s), err
		}
		// One hitting-set recomputation per *batch* of cores: after the
		// first core of a batch, keep harvesting further cores disjoint
		// from everything excluded so far (Davies-Bacchus "disjoint
		// phase") before paying for the next hitting set. Greedy hitting
		// sets drive the search; an exact solve (branch and bound) runs
		// only to certify optimality once the greedy set stops producing
		// cores.
		exact := needExact
		tr.step()
		H, err := hs.hittingSet(ctx, exact)
		if err != nil {
			return statsOf(s), err
		}
		if exact && tr != nil {
			// The weight of an *exact* hitting set of the cores found so
			// far is a valid lower bound on the optimum falsified weight.
			var hw int64
			for l := range H {
				hw += weights[l]
			}
			tr.bounds(hw, -1)
		}
		tr.event("hitting-set")
		clear(excluded)
		for l := range H {
			excluded[l] = true
		}
		foundCore := false
		for {
			assumptions = assumptions[:0]
			for _, l := range all {
				if !excluded[l] {
					assumptions = append(assumptions, l)
				}
			}
			st := satSolve(ctx, s, AlgMaxHS, assumptions...)
			if st == sat.Unknown {
				if err := interrupted(ctx); err != nil {
					return statsOf(s), err
				}
				return statsOf(s), fmt.Errorf("%w: conflicts (maxhs)", ErrBudget)
			}
			if st == sat.Sat {
				if !foundCore {
					if !exact {
						// SAT under a greedy hitting set proves nothing;
						// certify with an exact one.
						needExact = true
						break
					}
					// SAT under the optimal hitting set: the model is
					// optimal.
					model := s.Model()
					opt := p.score(model)
					tr.bounds(-1, p.total-opt)
					tr.event("model")
					return Result{
						Satisfiable:     true,
						Optimum:         opt,
						FalsifiedWeight: p.total - opt,
						Model:           p.trim(model),
						SATCalls:        s.Stats.Solves,
						Conflicts:       s.Stats.Conflicts,
					}, nil
				}
				break // batch exhausted; recompute the hitting set
			}
			core := s.Core()
			if len(core) == 0 {
				return Result{Satisfiable: false, SATCalls: s.Stats.Solves, Conflicts: s.Stats.Conflicts}, nil
			}
			for rounds := 0; rounds < 5 && len(core) > 1; rounds++ {
				st := satSolve(ctx, s, AlgMaxHS, core...)
				if st != sat.Unsat {
					if err := interrupted(ctx); err != nil {
						return statsOf(s), err
					}
					return statsOf(s), fmt.Errorf("maxsat: core no longer unsat during trimming (%v)", st)
				}
				trimmed := s.Core()
				if len(trimmed) >= len(core) {
					break
				}
				core = trimmed
			}
			hs.add(core)
			tr.event("core")
			foundCore = true
			needExact = false
			for _, l := range core {
				excluded[l] = true
			}
		}
	}
}

// hittingSets maintains the cores partitioned into connected clusters
// (cores sharing a selector) and solves minimum-weight hitting set
// exactly per cluster, caching cluster solutions between iterations and
// warm-starting the branch and bound from the previous solution.
type hittingSets struct {
	weights  map[cnf.Lit]int64
	clusters []*hsCluster
	// byLit maps a selector to its cluster index (after union).
	byLit      map[cnf.Lit]int
	nodeBudget int64
}

type hsCluster struct {
	cores    [][]cnf.Lit
	solution map[cnf.Lit]bool // cached optimal hitting set
	weight   int64
	warm     map[cnf.Lit]bool // feasible warm start for the next solve
	dirty    bool
}

func newHittingSets(weights map[cnf.Lit]int64) *hittingSets {
	return &hittingSets{weights: weights, byLit: map[cnf.Lit]int{}, nodeBudget: hsNodeBudget}
}

// add inserts a core, merging every cluster it touches.
func (h *hittingSets) add(core []cnf.Lit) {
	touched := map[int]bool{}
	for _, l := range core {
		if ci, ok := h.byLit[l]; ok {
			touched[ci] = true
		}
	}
	var target *hsCluster
	var targetIdx int
	warm := map[cnf.Lit]bool{}
	if len(touched) == 0 {
		target = &hsCluster{}
		targetIdx = len(h.clusters)
		h.clusters = append(h.clusters, target)
	} else {
		idxs := make([]int, 0, len(touched))
		for ci := range touched {
			idxs = append(idxs, ci)
		}
		sort.Ints(idxs)
		targetIdx = idxs[0]
		target = h.clusters[targetIdx]
		for l := range target.solution {
			warm[l] = true
		}
		for _, ci := range idxs[1:] {
			other := h.clusters[ci]
			target.cores = append(target.cores, other.cores...)
			for _, c := range other.cores {
				for _, l := range c {
					h.byLit[l] = targetIdx
				}
			}
			for l := range other.solution {
				warm[l] = true
			}
			h.clusters[ci] = &hsCluster{} // emptied
		}
	}
	// Warm start: previous solutions hit all old cores; hitting the new
	// core with its cheapest literal keeps feasibility.
	cheapest := core[0]
	for _, l := range core[1:] {
		if h.weights[l] < h.weights[cheapest] {
			cheapest = l
		}
	}
	warm[cheapest] = true
	target.warm = warm
	target.addCore(core)
	for _, l := range core {
		h.byLit[l] = targetIdx
	}
}

// addCore appends a core with subsumption filtering: a core that is a
// superset of an existing core adds no constraint; existing cores that
// are supersets of the new one are dropped.
func (cl *hsCluster) addCore(core []cnf.Lit) {
	sorted := append([]cnf.Lit(nil), core...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, c := range cl.cores {
		if isSubsetLits(c, sorted) {
			// An existing core subsumes the new one (cannot happen for
			// cores disjoint from the current hitting set, but kept for
			// safety): nothing to add.
			cl.dirty = true
			return
		}
	}
	kept := make([][]cnf.Lit, 0, len(cl.cores)+1)
	for _, c := range cl.cores {
		if !isSubsetLits(sorted, c) {
			kept = append(kept, c)
		}
	}
	cl.cores = append(kept, sorted)
	cl.dirty = true
}

// isSubsetLits reports a ⊆ b for sorted literal slices.
func isSubsetLits(a, b []cnf.Lit) bool {
	if len(a) > len(b) {
		return false
	}
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

// hittingSet returns a hitting set over all cores: greedy (feasible,
// usually near-optimal) or exact (minimum weight), per cluster. Exact
// solutions are cached; greedy ones leave the cluster dirty so a later
// exact pass re-solves it. The exact search polls ctx (see
// solveClusterHS).
func (h *hittingSets) hittingSet(ctx context.Context, exact bool) (map[cnf.Lit]bool, error) {
	out := map[cnf.Lit]bool{}
	for _, cl := range h.clusters {
		if len(cl.cores) == 0 {
			continue
		}
		if cl.dirty {
			if exact {
				start := time.Now()
				sol, weight, err := solveClusterHS(ctx, cl.cores, h.weights, cl.warm, h.nodeBudget)
				if err != nil {
					return nil, err
				}
				cl.solution, cl.weight = sol, weight
				cl.dirty = false
				if el := time.Since(start); el > 500*time.Millisecond && os.Getenv("RC2_DEBUG") != "" {
					fmt.Fprintf(os.Stderr, "HS cluster: %d cores, weight %d, %v\n",
						len(cl.cores), cl.weight, el)
				}
			} else {
				cl.solution, cl.weight = greedyClusterHS(cl.cores, h.weights, cl.warm)
				// cl.dirty stays true: only exact solutions are final.
			}
			cl.warm = cl.solution
		}
		for l := range cl.solution {
			out[l] = true
		}
	}
	return out, nil
}

// greedyClusterHS builds a feasible hitting set fast: start from the
// warm set, cover unhit cores with their cheapest literal, then drop
// redundant elements heaviest-first.
func greedyClusterHS(cores [][]cnf.Lit, weights map[cnf.Lit]int64, warm map[cnf.Lit]bool) (map[cnf.Lit]bool, int64) {
	sol := map[cnf.Lit]bool{}
	for l := range warm {
		sol[l] = true
	}
	hit := func(c []cnf.Lit) bool {
		for _, l := range c {
			if sol[l] {
				return true
			}
		}
		return false
	}
	for _, c := range cores {
		if !hit(c) {
			cheapest := c[0]
			for _, l := range c[1:] {
				if weights[l] < weights[cheapest] {
					cheapest = l
				}
			}
			sol[cheapest] = true
		}
	}
	// Reduction pass: remove redundant elements, heaviest first.
	elems := make([]cnf.Lit, 0, len(sol))
	for l := range sol {
		elems = append(elems, l)
	}
	sort.Slice(elems, func(i, j int) bool {
		wi, wj := weights[elems[i]], weights[elems[j]]
		if wi != wj {
			return wi > wj
		}
		return elems[i] < elems[j]
	})
	for _, l := range elems {
		delete(sol, l)
		feasible := true
		for _, c := range cores {
			if !hit(c) {
				feasible = false
				break
			}
		}
		if !feasible {
			sol[l] = true
		}
	}
	var total int64
	for l := range sol {
		total += weights[l]
	}
	return sol, total
}

// errHSBudget signals that the exact hitting-set search exceeded its
// node budget; solveMaxHS surfaces it so Solve can fall back to the
// core-guided algorithm (which is slower on these instances but has no
// comparable worst case). It wraps ErrBudget so callers that only care
// about "some budget ran out" match it with errors.Is.
var errHSBudget = fmt.Errorf("%w: exact hitting-set node budget (maxhs)", ErrBudget)

// hsNodeBudget bounds one exact cluster solve. The calibrated workloads
// stay far below it; it exists so a pathological cluster degrades into
// the RC2 fallback instead of an unbounded search.
const hsNodeBudget = 30_000_000

// hsPollEvery is the node interval at which the exact hitting-set
// search checks its context, so a cancelled or expired solve stops
// within a few milliseconds instead of finishing the branch and bound.
const hsPollEvery = 4096

// solveClusterHS solves minimum-weight hitting set for one cluster by
// in-place branch and bound: unit propagation, inclusion-exclusion
// branching on the most constrained core, and an expensive-first
// disjoint-core packing bound, warm-started from the greedy solution.
// The error is errHSBudget when the node budget ran out, and the
// interrupted(ctx) error when ctx died first (polled every hsPollEvery
// nodes) — a cancellation, so it must not trigger the RC2 fallback.
func solveClusterHS(ctx context.Context, cores [][]cnf.Lit, weights map[cnf.Lit]int64, warm map[cnf.Lit]bool, nodeBudget int64) (map[cnf.Lit]bool, int64, error) {
	// Dense selector ids.
	id := map[cnf.Lit]int{}
	var lits []cnf.Lit
	var w []int64
	intern := func(l cnf.Lit) int {
		if i, ok := id[l]; ok {
			return i
		}
		i := len(lits)
		id[l] = i
		lits = append(lits, l)
		w = append(w, weights[l])
		return i
	}
	idxCores := make([][]int, len(cores))
	for i, c := range cores {
		ic := make([]int, len(c))
		for j, l := range c {
			ic[j] = intern(l)
		}
		sort.Slice(ic, func(a, b int) bool {
			if w[ic[a]] != w[ic[b]] {
				return w[ic[a]] < w[ic[b]]
			}
			return ic[a] < ic[b]
		})
		idxCores[i] = ic
	}
	nSel := len(lits)
	occur := make([][]int, nSel)
	for ci, c := range idxCores {
		for _, sel := range c {
			occur[sel] = append(occur[sel], ci)
		}
	}
	hv := &hsSolver{
		ctx:        ctx,
		w:          w,
		idxCores:   idxCores,
		occur:      occur,
		hitCount:   make([]int, len(idxCores)),
		banned:     make([]bool, nSel),
		chosen:     make([]bool, nSel),
		mark:       make([]int, nSel),
		bestW:      -1,
		nodeBudget: nodeBudget,
	}
	hv.packOrder = make([]int, len(idxCores))
	for i := range hv.packOrder {
		hv.packOrder[i] = i
	}
	sort.Slice(hv.packOrder, func(a, b int) bool {
		return w[idxCores[hv.packOrder[a]][0]] > w[idxCores[hv.packOrder[b]][0]]
	})

	// Warm upper bound (always feasible).
	warmSol, warmW := greedyClusterHS(cores, weights, warm)
	hv.bestW = warmW
	hv.best = make([]bool, nSel)
	for l := range warmSol {
		if i, ok := id[l]; ok {
			hv.best[i] = true
		}
	}

	hv.rec(0)
	if hv.err != nil {
		return nil, 0, hv.err
	}
	if hv.bestW >= warmW {
		return warmSol, warmW, nil
	}
	out := map[cnf.Lit]bool{}
	for i, b := range hv.best {
		if b {
			out[lits[i]] = true
		}
	}
	return out, hv.bestW, nil
}

type hsSolver struct {
	ctx        context.Context
	nodeBudget int64
	w          []int64
	idxCores   [][]int
	occur      [][]int
	hitCount   []int
	banned     []bool
	chosen     []bool
	mark       []int
	stamp      int
	packOrder  []int
	best       []bool
	bestW      int64
	nodes      int64
	err        error // errHSBudget or interrupted(ctx); ends the search
}

func (hv *hsSolver) choose(sel int) {
	hv.chosen[sel] = true
	for _, ci := range hv.occur[sel] {
		hv.hitCount[ci]++
	}
}

func (hv *hsSolver) unchoose(sel int) {
	for _, ci := range hv.occur[sel] {
		hv.hitCount[ci]--
	}
	hv.chosen[sel] = false
}

func (hv *hsSolver) rec(weight int64) {
	if hv.err != nil {
		return
	}
	hv.nodes++
	if hv.nodes > hv.nodeBudget {
		hv.err = errHSBudget
		return
	}
	if hv.nodes%hsPollEvery == 0 {
		if hv.err = interrupted(hv.ctx); hv.err != nil {
			return
		}
	}
	if hv.bestW >= 0 && weight >= hv.bestW {
		return
	}
	// Unit propagation: a core with exactly one unbanned literal forces
	// it; a core with none kills the branch.
	var forced []int
	undo := func() {
		for i := len(forced) - 1; i >= 0; i-- {
			hv.unchoose(forced[i])
		}
	}
	for {
		progress, dead := false, false
		for ci, c := range hv.idxCores {
			if hv.hitCount[ci] > 0 {
				continue
			}
			count, unbanned := 0, -1
			for _, sel := range c {
				if !hv.banned[sel] {
					count++
					unbanned = sel
					if count > 1 {
						break
					}
				}
			}
			if count == 0 {
				dead = true
				break
			}
			if count == 1 {
				hv.choose(unbanned)
				forced = append(forced, unbanned)
				weight += hv.w[unbanned]
				progress = true
			}
		}
		if dead || (hv.bestW >= 0 && weight >= hv.bestW) {
			if dead || weight >= hv.bestW {
				undo()
				return
			}
		}
		if !progress {
			break
		}
	}
	// Most constrained core to branch on; expensive-first packing bound.
	branchCore, branchChoices := -1, 1<<30
	var lb int64
	hv.stamp++
	for _, ci := range hv.packOrder {
		if hv.hitCount[ci] > 0 {
			continue
		}
		c := hv.idxCores[ci]
		choices := 0
		var cheapest int64 = -1
		for _, sel := range c {
			if !hv.banned[sel] {
				choices++
				if cheapest < 0 || hv.w[sel] < cheapest {
					cheapest = hv.w[sel]
				}
			}
		}
		if choices < branchChoices {
			branchChoices = choices
			branchCore = ci
		}
		disjoint := true
		for _, sel := range c {
			if hv.mark[sel] == hv.stamp {
				disjoint = false
				break
			}
		}
		if disjoint {
			lb += cheapest
			for _, sel := range c {
				hv.mark[sel] = hv.stamp
			}
		}
	}
	if branchCore < 0 {
		hv.bestW = weight
		hv.best = append(hv.best[:0:0], hv.chosen...)
		undo()
		return
	}
	if hv.bestW >= 0 && weight+lb >= hv.bestW {
		undo()
		return
	}
	var bannedHere []int
	for _, sel := range hv.idxCores[branchCore] {
		if hv.banned[sel] || hv.chosen[sel] {
			continue
		}
		hv.choose(sel)
		hv.rec(weight + hv.w[sel])
		hv.unchoose(sel)
		hv.banned[sel] = true
		bannedHere = append(bannedHere, sel)
	}
	for _, sel := range bannedHere {
		hv.banned[sel] = false
	}
	undo()
}
