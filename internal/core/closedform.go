package core

import (
	"slices"

	"aggcavsat/internal/db"
)

// Group elimination. Under keys a repair keeps exactly one fact of every
// key-equal group, so a keys-mode Reduction IV.1 component is a small
// constraint network: one variable per violating group (a group with
// more than one fact) ranging over the member kept, and one factor per
// witness over the violating groups it touches, worth the witness's
// falsified weight under each choice of kept members. The component's
// minimum (maximum) falsified weight is the network's min-sum (max-sum),
// which bucket elimination (Dechter, "Bucket elimination: a unifying
// framework for reasoning", AIJ 1999) computes exactly: the groups are
// eliminated one at a time in greedy min-degree order, each bucket's
// table ranging over the group eliminated and the groups still coupled
// to it. This is the per-block choice the range rewritings make (arXiv
// 2409.01648, 2211.04134), carried through the couplings of one
// component of the SAT route. A component whose witnesses each touch at
// most one violating group (width 0) is the one-group-per-bucket case.

// elimTableBudget is the largest bucket table, in entries, the kernel
// builds: a component whose elimination order needs a larger one is
// left to the solver.
const elimTableBudget = 1 << 20

// eliminateComponents answers every keys-mode component of split whose
// elimination fits the engine's table budget, inline, and records them
// with one locked add. It returns their summed minimum and maximum
// falsified weights and the components left to the solver (every
// component in DC mode).
func (e *Engine) eliminateComponents(cc *constraintContext, split *componentSplit, ws []weightedWitness, rc *recorder) (minF, maxF int64, solve []int) {
	if cc.mode != KeysMode {
		solve = make([]int, len(split.groups))
		for ci := range solve {
			solve[ci] = ci
		}
		return 0, 0, solve
	}
	el := eliminator{cc: cc, ws: ws, budget: e.elimBudget}
	var tally closedFormTally
	for ci, idx := range split.groups {
		lo, hi, shape, ok := el.solve(split.facts[ci], idx)
		if !ok {
			solve = append(solve, ci)
			continue
		}
		minF += lo
		maxF += hi
		formula, negation := reductionSize(cc, split.facts[ci], ws, idx)
		tally.add(formula, len(split.facts[ci]), len(idx), shape, rc.explain)
		if !e.incremental() {
			tally.stats.absorb(negation)
		}
	}
	rc.closedForm(&tally)
	return minF, maxF, solve
}

// elimShape describes one component's elimination: its width (the most
// groups a bucket table ranges over besides the group eliminated) and
// its largest bucket table, in entries.
type elimShape struct{ width, table int }

// widest combines the shapes of two eliminations: the larger width and
// the larger largest table.
func (s elimShape) widest(o elimShape) elimShape {
	return elimShape{max(s.width, o.width), max(s.table, o.table)}
}

// eliminator holds the scratch of the elimination kernel, reused across
// the components of one solve unit.
type eliminator struct {
	cc     *constraintContext
	ws     []weightedWitness
	budget int
	// minOnly skips the max tables: solve then returns the minimum alone,
	// as the consistency filter needs.
	minOnly bool

	// Variables: dom is each violating group's member count and own the
	// offset in tab of its table over its members; gis is its key-equal
	// group.
	dom, own []int
	gis      []int

	// ents are the witnesses coupling several groups that are present
	// under some choice of kept members, each a point of the product of
	// its groups' domains; their scopes (ascending variable order) and
	// members are slices of ev.
	ents    []elimEntry
	ev      []varMember
	coupled bool // some entry spans two groups

	// The plan: the elimination order, each variable's rank in it, and
	// scopes[step] — the groups the bucket eliminated at step ranges
	// over, latest-eliminated first, so the group eliminated is the last
	// (stride-1) axis of the bucket table.
	adj    [][]int32
	deg    []int32
	rank   []int32
	heap   []uint64
	order  []int32
	scopes [][]int32
	sv     []int32
	ends   []int

	// The tables: factors holds the witnesses' (each group's own, then
	// one per bucket and scope of the coupling entries, their scopes
	// carved from fv) and then the messages; head chains each bucket's
	// factors. tab is the arena of every table.
	factors       []elimFactor
	fv            []int32
	head          []int32
	tab           []int64
	dims, st, idx []int
}

// varMember is a violating group's variable and one of its members.
type varMember struct{ v, m int32 }

// elimEntry is one witness as a factor: val (its falsified weight when
// present, less what it is falsified by when absent) at the choice
// ev[off:off+n].
type elimEntry struct {
	off, n int32
	val    int64
}

// elimFactor is one table over vars (latest-eliminated first,
// row-major with the last axis of stride 1) at tab[off:]: a witness
// table, or a message whose min table of size entries is followed by
// its max table.
type elimFactor struct {
	vars []int32
	off  int
	size int
	msg  bool
	next int32
}

// solve answers the component over facts (sorted, whole key-equal
// groups) holding the witnesses idx of ws. It returns the minimum and
// maximum falsified weight of the component's Reduction IV.1 instance:
// a positive witness is falsified when present, a negative one when
// absent. A witness is present iff each of its facts in a violating
// group is the member kept; safe facts are in every repair, and a
// witness holding two facts of one group is in none. ok is false when
// the elimination order needs a table of more than budget entries: the
// component then goes to the solver. Under minOnly, maxF is not
// computed.
//
// The caller has checked that the total soft weight fits in an int64.
// Every table entry, message and partial sum below is a sum over
// distinct witnesses of at most their weight each in absolute value, so
// all stay within it.
func (el *eliminator) solve(facts []db.FactID, idx []int) (minF, maxF int64, shape elimShape, ok bool) {
	always := el.index(facts, idx)
	if shape, ok = el.plan(); !ok {
		return 0, 0, shape, false
	}
	el.initFactors()
	lo, hi := el.run()
	return always + lo, always + hi, shape, true
}

// index numbers the component's violating groups, giving each a table
// over its members, and adds each witness of idx that touches one group
// to that group's table and turns each that couples several into an
// entry. It returns the weight falsified in every repair: positive
// witnesses made only of safe facts and negative witnesses that are
// never present. A negative witness that can be present adds its weight
// here and its negation to its table or entry.
//
// A fact's variable is read from a pooled group → variable table (every
// entry -1 at rest, restored before index returns) and its member index
// from the constraint context, so each lookup is O(1).
func (el *eliminator) index(facts []db.FactID, idx []int) (always int64) {
	cc := el.cc
	pooled := cc.groupNodes()
	node := *pooled
	el.dom, el.own, el.gis, el.tab = el.dom[:0], el.own[:0], el.gis[:0], el.tab[:0]
	for _, f := range facts {
		gi := cc.groupOf[f]
		if cc.groupSafe[gi] || node[gi] >= 0 {
			continue
		}
		node[gi] = int32(len(el.dom))
		n := len(cc.groups[gi].Facts)
		el.dom = append(el.dom, n)
		el.own = append(el.own, el.grow(n))
		el.gis = append(el.gis, gi)
	}

	el.ents, el.ev, el.coupled = el.ents[:0], el.ev[:0], false
	for _, wi := range idx {
		w := &el.ws[wi]
		off := len(el.ev)
		never := false
		for _, f := range w.facts {
			gi := cc.groupOf[f]
			if cc.groupSafe[gi] {
				continue
			}
			vm := varMember{node[gi], cc.memberOf[f]}
			// Insert in ascending variable order, once per group.
			i := off
			for i < len(el.ev) && el.ev[i].v < vm.v {
				i++
			}
			switch {
			case i == len(el.ev):
				el.ev = append(el.ev, vm)
			case el.ev[i].v == vm.v:
				never = never || el.ev[i].m != vm.m
			default:
				el.ev = slices.Insert(el.ev, i, vm)
			}
		}
		switch {
		case never:
			el.ev = el.ev[:off]
			if w.negative {
				always += w.weight
			}
		case len(el.ev) == off:
			// Only safe facts: present in every repair.
			if !w.negative {
				always += w.weight
			}
		default:
			val := w.weight
			if w.negative {
				// Falsified unless present.
				always += w.weight
				val = -val
			}
			if n := len(el.ev) - off; n > 1 {
				el.coupled = true
				el.ents = append(el.ents, elimEntry{off: int32(off), n: int32(n), val: val})
			} else {
				vm := el.ev[off]
				el.tab[el.own[vm.v]+int(vm.m)] += val
				el.ev = el.ev[:off]
			}
		}
	}
	for _, gi := range el.gis {
		node[gi] = -1
	}
	cc.nodes.Put(pooled)
	return always
}

// plan orders the elimination greedily by minimum degree in the
// interaction graph (two groups adjacent when some witness touches
// both, or an earlier elimination left both coupled to the group it
// eliminated), lowest variable first on ties, and records each bucket's
// scope. It reports false as soon as a bucket table would exceed the
// budget.
func (el *eliminator) plan() (shape elimShape, ok bool) {
	nv := len(el.dom)
	el.order = el.order[:0]
	if !el.coupled {
		// Width 0: every bucket holds only its group's own table, which
		// run reduces without a scope.
		for v := range int32(nv) {
			if el.dom[v] > el.budget {
				return shape, false
			}
			shape.table = max(shape.table, el.dom[v])
			el.order = append(el.order, v)
		}
		return shape, true
	}
	// Each step appends its scope to sv: the live neighbours, then the
	// group eliminated; ends[step] is where it ends.
	el.rank = resize(el.rank, nv)
	el.sv, el.ends, el.scopes = el.sv[:0], el.ends[:0], el.scopes[:0]
	el.adj = resizeAdj(el.adj, nv)
	for _, en := range el.ents {
		vs := el.ev[en.off : en.off+en.n]
		for i, a := range vs {
			for _, b := range vs[i+1:] {
				el.link(a.v, b.v)
			}
		}
	}
	el.deg = resize(el.deg, nv)
	el.heap = el.heap[:0]
	for v := range nv {
		el.deg[v] = int32(len(el.adj[v]))
		el.rank[v] = -1
		el.push(int32(v))
	}
	for len(el.order) < nv {
		v := el.pop()
		el.rank[v] = int32(len(el.order))
		el.order = append(el.order, v)
		off := len(el.sv)
		size := el.dom[v]
		for _, u := range el.adj[v] {
			if el.rank[u] >= 0 {
				continue // eliminated
			}
			el.sv = append(el.sv, u)
			if size *= el.dom[u]; size > el.budget {
				return shape, false
			}
		}
		if size > el.budget {
			return shape, false
		}
		nb := el.sv[off:]
		shape.width = max(shape.width, len(nb))
		shape.table = max(shape.table, size)
		for _, u := range nb {
			el.deg[u]--
		}
		for i, a := range nb {
			for _, b := range nb[i+1:] {
				if el.link(a, b) {
					el.deg[a]++
					el.deg[b]++
				}
			}
		}
		for _, u := range nb {
			el.push(u)
		}
		el.sv = append(el.sv, v)
		el.ends = append(el.ends, len(el.sv))
	}
	// Ranks are final: order each scope's neighbours latest-eliminated
	// first, ahead of the group eliminated.
	start := 0
	for _, end := range el.ends {
		s := el.sv[start:end]
		slices.SortFunc(s[:len(s)-1], func(a, b int32) int { return int(el.rank[b] - el.rank[a]) })
		el.scopes = append(el.scopes, s)
		start = end
	}
	return shape, true
}

// link adds the edge a–b to the interaction graph and reports whether
// it was new. Adjacency lists keep eliminated neighbours; deg counts
// only the live ones.
func (el *eliminator) link(a, b int32) bool {
	if slices.Contains(el.adj[a], b) {
		return false
	}
	el.adj[a] = append(el.adj[a], b)
	el.adj[b] = append(el.adj[b], a)
	return true
}

// push queues v at its current degree; pop returns the live variable of
// least degree, lowest first. Entries a later push or an elimination
// made stale are skipped.
func (el *eliminator) push(v int32) {
	h := append(el.heap, uint64(el.deg[v])<<32|uint64(v))
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	el.heap = h
}

func (el *eliminator) pop() int32 {
	for {
		h := el.heap
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1] < h[c] {
				c++
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		el.heap = h
		v := int32(uint32(top))
		if el.rank[v] < 0 && uint64(el.deg[v]) == top>>32 {
			return v
		}
	}
}

// initFactors builds the witnesses' factors: each group's own table,
// and one table per bucket and scope for the coupling entries, each
// entry's value added at its choice of members. An entry goes to the
// bucket of its earliest-eliminated group, whose scope covers its own.
func (el *eliminator) initFactors() {
	nv := len(el.dom)
	el.head = resize(el.head, nv)
	el.factors = el.factors[:0]
	// The factors' scopes are carved from fv, sized so it never grows.
	if n := nv + len(el.ev); cap(el.fv) < n {
		el.fv = make([]int32, 0, n)
	}
	el.fv = el.fv[:0]
	for v := range int32(nv) {
		el.fv = append(el.fv, v)
		el.factors = append(el.factors, elimFactor{vars: el.fv[v : v+1], off: el.own[v], next: -1})
		el.head[v] = v
	}
	for _, en := range el.ents {
		// Latest-eliminated first, as the bucket scopes.
		vm := el.ev[en.off : en.off+en.n]
		slices.SortFunc(vm, func(a, b varMember) int { return int(el.rank[b.v] - el.rank[a.v]) })
		b := vm[len(vm)-1].v
		fi := el.head[b]
		for fi >= 0 && !sameVars(el.factors[fi].vars, vm) {
			fi = el.factors[fi].next
		}
		if fi < 0 {
			off, size := len(el.fv), 1
			for _, x := range vm {
				el.fv = append(el.fv, x.v)
				size *= el.dom[x.v]
			}
			vars := el.fv[off:]
			fi = int32(len(el.factors))
			el.factors = append(el.factors, elimFactor{vars: vars, off: el.grow(size), next: el.head[b]})
			el.head[b] = fi
		}
		at, stride := 0, 1
		for i := len(vm) - 1; i >= 0; i-- {
			at += int(vm[i].m) * stride
			stride *= el.dom[vm[i].v]
		}
		el.tab[el.factors[fi].off+at] += en.val
	}
}

func sameVars(vars []int32, vm []varMember) bool {
	if len(vars) != len(vm) {
		return false
	}
	for i, v := range vars {
		if vm[i].v != v {
			return false
		}
	}
	return true
}

// grow appends size zeroed entries to the table arena and returns their
// offset.
func (el *eliminator) grow(size int) int {
	off := len(el.tab)
	el.tab = slices.Grow(el.tab, size)[:off+size]
	clear(el.tab[off:])
	return off
}

// run processes the buckets in elimination order, minimizing and
// maximizing over each group eliminated in the same sweep, and returns
// the sums of the scalar messages: the component's minimum and maximum
// falsified weight less what every repair falsifies. A message carries
// its min table and, right after it, its max table — unless minOnly,
// which builds no max table and leaves hi 0.
func (el *eliminator) run() (lo, hi int64) {
	withMax := !el.minOnly
	for step, v := range el.order {
		d := el.dom[v]
		// A bucket holding only the group's own table (the last factor
		// chained) ranges over the group alone: it is reduced directly.
		if f := &el.factors[el.head[v]]; f.next < 0 {
			t := el.tab[f.off : f.off+d]
			lo += slices.Min(t)
			if withMax {
				hi += slices.Max(t)
			}
			continue
		}
		// Otherwise its tables are summed into a min and a max table over
		// its scope, reduced in place.
		s := el.scopes[step]
		el.dims, el.st, el.idx = resize(el.dims, len(s)), resize(el.st, len(s)), resize(el.idx, len(s))
		size := 1
		for a, u := range s {
			el.dims[a] = el.dom[u]
			size *= el.dom[u]
		}
		tables := 1
		if withMax {
			tables = 2
		}
		in := el.grow(tables * size)
		tlo, thi := el.tab[in:in+size], el.tab[in+size:in+tables*size]
		for fi := el.head[v]; fi >= 0; fi = el.factors[fi].next {
			if f := &el.factors[fi]; !f.msg {
				el.strides(s, f.vars)
				addInto(tlo, el.dims, el.st, el.idx, el.tab[f.off:])
			}
		}
		copy(thi, tlo)
		for fi := el.head[v]; fi >= 0; fi = el.factors[fi].next {
			if f := &el.factors[fi]; f.msg {
				el.strides(s, f.vars)
				addInto(tlo, el.dims, el.st, el.idx, el.tab[f.off:])
				if withMax {
					addInto(thi, el.dims, el.st, el.idx, el.tab[f.off+f.size:])
				}
			}
		}
		if len(s) == 1 {
			lo += slices.Min(tlo)
			if withMax {
				hi += slices.Max(thi)
			}
			el.tab = el.tab[:in]
			continue
		}
		// The message over the rest of the scope goes to the bucket of
		// its earliest-eliminated group, the last. Row i of a table is
		// read before entry i of the message is written over it.
		n := size / d
		for i := range n {
			el.tab[in+i] = slices.Min(tlo[i*d : (i+1)*d])
		}
		if withMax {
			for i := range n {
				el.tab[in+n+i] = slices.Max(thi[i*d : (i+1)*d])
			}
		}
		el.tab = el.tab[:in+tables*n]
		rest := s[:len(s)-1]
		b := rest[len(rest)-1]
		el.factors = append(el.factors, elimFactor{vars: rest, off: in, size: n, msg: true, next: el.head[b]})
		el.head[b] = int32(len(el.factors) - 1)
	}
	return lo, hi
}

// strides sets st[a] to the stride, in the table of a factor over vars,
// of axis a of scope s (0 for an axis the factor does not range over).
// vars is a subsequence of s.
func (el *eliminator) strides(s, vars []int32) {
	j, stride := len(vars)-1, 1
	for a := len(s) - 1; a >= 0; a-- {
		el.st[a] = 0
		if j >= 0 && vars[j] == s[a] {
			el.st[a] = stride
			stride *= el.dom[s[a]]
			j--
		}
	}
}

// addInto adds the factor table ft, read with strides st, into t, laid
// out row-major over dims; idx is odometer scratch of len(dims).
func addInto(t []int64, dims, st, idx []int, ft []int64) {
	idx = idx[:len(dims)]
	clear(idx)
	fi, last := 0, len(dims)-1
	for i := range t {
		t[i] += ft[fi]
		for a := last; a >= 0; a-- {
			fi += st[a]
			if idx[a]++; idx[a] < dims[a] {
				break
			}
			fi -= st[a] * dims[a]
			idx[a] = 0
		}
	}
}

// resize returns s with length n, reusing its storage; the contents are
// unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resizeAdj returns n empty adjacency lists, reusing the storage of a.
func resizeAdj(a [][]int32, n int) [][]int32 {
	a = resize(a, n)
	for i := range a {
		a[i] = a[i][:0]
	}
	return a
}

// formulaSize is the size of one CNF formula, as cnf.Formula.Stats
// reports it.
type formulaSize struct{ vars, clauses int }

// keysHardSize counts the hard clauses newEncoder builds in keys mode
// over the closure of the seed facts (repeats allowed), without
// building the closure or the clauses: per key-equal group touched,
// one variable per member (so vars is the closure's size), an
// at-least-one clause and the pairwise at-most-one clauses.
func keysHardSize(cc *constraintContext, seed []db.FactID) (size formulaSize) {
	pooled := cc.groupNodes()
	seen := *pooled
	var gis []int
	for _, f := range seed {
		if gi := cc.groupOf[f]; seen[gi] < 0 {
			seen[gi] = 0
			gis = append(gis, gi)
			k := len(cc.groups[gi].Facts)
			size.vars += k
			size.clauses += 1 + k*(k-1)/2
		}
	}
	for _, gi := range gis {
		seen[gi] = -1
	}
	cc.nodes.Put(pooled)
	return size
}

// reductionSize counts the variables and clauses of the Reduction IV.1
// formula the encoder builds for one keys-mode component (facts, sorted
// and made of whole key-equal groups, holding the witnesses idx of ws)
// without building it: one variable per fact, per group an at-least-one
// clause and the pairwise at-most-one clauses, one soft clause per
// witness, and a defined presence variable with its clauses per
// negative witness of several facts. negation is the size of its CNF
// negation (cnf.Formula.NegateSoft), which the per-run-formula solve
// path also builds for the lub direction.
func reductionSize(cc *constraintContext, facts []db.FactID, ws []weightedWitness, idx []int) (formula, negation formulaSize) {
	vars, hard := len(facts), 0
	for _, f := range facts {
		if members := cc.groups[cc.groupOf[f]].Facts; members[0] == f {
			k := len(members)
			hard += 1 + k*(k-1)/2
		}
	}
	negVars, negSoft := 0, 0
	for _, wi := range idx {
		n := len(ws[wi].facts)
		switch {
		case ws[wi].negative && n > 1:
			vars++
			hard += n + 1
			negSoft++
		case !ws[wi].negative && n > 1:
			negVars++
			negSoft += n + 1
		default:
			negSoft++
		}
	}
	return formulaSize{vars, hard + len(idx)}, formulaSize{vars + negVars, hard + negSoft}
}
