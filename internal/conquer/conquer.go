// Package conquer implements a ConQuer-style rewriting: range consistent
// answers of C_aggforest aggregation queries computed by pure relational
// evaluation, with no SAT solving.
//
// ConQuer (Fuxman, Fazli, Miller; SIGMOD'05) rewrites such queries into
// SQL evaluated directly on the inconsistent database. On our in-memory
// engine the equivalent computation is a dynamic program over key-equal
// groups arranged in the query's join tree:
//
//   - the query must be a single self-join-free conjunctive query whose
//     join graph is a tree rooted at the aggregation relation, every
//     child atom joined from its parent on the child's *full key* (the
//     defining property of C_forest); comparisons must be local to one
//     atom, and SUM values must be non-negative;
//   - a root fact yields at most one result row (full-key joins are
//     functional), so per key-equal group of the root the adversary
//     (glb) or the advocate (lub) picks the best alternative, where an
//     alternative's contribution depends on whether its join chain is
//     *certain* (survives every repair) or merely *possible*;
//   - a group key is a consistent answer iff some root key-equal group
//     contributes a row to it under every repair.
//
// Queries outside the class are rejected with ErrNotInClass — exactly
// how the paper treats Q5 ("not in C_aggforest and thus ConQuer cannot
// compute its range consistent answers").
//
// The package splits classification from execution so internal/planner
// can serve it under force-rewrite: Analyze compiles a query against a
// schema into an instance-independent Plan, and Plan.Execute runs it
// over an instance with memoized
// Indexes, a bounded worker pool over grouping keys, and cooperative
// context cancellation. Baseline wraps both for the sequential
// single-shot use the tests and benchmarks rely on.
package conquer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/workpool"
)

// ErrNotInClass is returned for queries the rewriting cannot handle.
var ErrNotInClass = errors.New("conquer: query not in C_aggforest")

// GroupRange is one range consistent answer.
type GroupRange struct {
	Key db.Tuple
	GLB db.Value
	LUB db.Value
	// EmptyPossible is set for scalar MIN/MAX when some repair has an
	// empty result; the corresponding endpoint is NULL.
	EmptyPossible bool
	// FromConsistentPart reports that every witness of this answer is
	// made of safe facts (facts in no key violation) — the same flag the
	// SAT engine's consistent-part folding sets, so the two routes stay
	// digest-identical. Only COUNT(*)/COUNT/SUM answers carry it; the
	// solver's MIN/MAX path never sets the flag, so neither does the
	// rewriting.
	FromConsistentPart bool
}

// Baseline evaluates C_aggforest queries over one instance.
type Baseline struct {
	in *db.Instance
	ix *Indexes
}

// New creates a baseline evaluator. The per-relation lookup indexes are
// memoized on the Baseline, so repeated RangeAnswers calls over the same
// instance skip re-indexing.
func New(in *db.Instance) *Baseline { return &Baseline{in: in, ix: NewIndexes(in)} }

// RangeAnswers computes the range consistent answers of q, or
// ErrNotInClass when the query falls outside the supported class.
func (b *Baseline) RangeAnswers(q cq.AggQuery) ([]GroupRange, error) {
	q = q.BuildHead()
	if err := q.Validate(b.in.Schema()); err != nil {
		return nil, err
	}
	plan, err := Analyze(b.in.Schema(), q)
	if err != nil {
		return nil, err
	}
	return plan.Execute(context.Background(), b.in, b.ix, 1)
}

// varOcc is one occurrence of a variable: which atom and position.
type varOcc struct{ atom, pos int }

// rootGroup is one key-equal group of the root relation.
type rootGroup struct{ members []db.FactID }

// atomInfo is one node of the join tree.
type atomInfo struct {
	atom     cq.Atom
	rel      *db.RelationSchema
	parent   int // -1 for root
	children []int
	// joinPos maps, for non-root atoms, each key position of this atom
	// to the parent position providing the join value.
	parentJoin []joinEdge
	// conds are the conditions local to this atom.
	conds []cq.Condition
	// groupPositions lists (head index, attr position) for grouping
	// variables owned by this atom.
	groupPositions []groupPos
	// local is the compiled form of the atom's constants, duplicate
	// variables, and conditions.
	local localCheck
	// keyFromParent maps, for non-root atoms, each key index to the
	// parent tuple position providing its value (-1 when the key
	// position is bound by a constant, stored in keyConsts).
	keyFromParent []int
	keyConsts     db.Tuple
	// subtreeGroupIdx lists, sorted, the head indices of grouping
	// variables owned by this atom's subtree.
	subtreeGroupIdx []int
}

type joinEdge struct {
	childKeyPos int
	parentPos   int
}

type groupPos struct {
	headIndex int
	pos       int
}

// localCheck is the compiled, allocation-free form of an atom's local
// filters — constant bindings, repeated-variable equalities, and
// comparison conditions — all resolved to tuple positions at Analyze
// time so Execute never rebuilds a variable binding map per fact.
type localCheck struct {
	constPos []int
	constVal []db.Value
	dupPairs [][2]int
	conds    []condCheck
}

// condCheck is one compiled comparison: each side is either a constant
// (pos < 0) or a tuple position of the owning atom.
type condCheck struct {
	op       cq.CmpOp
	leftPos  int
	leftVal  db.Value
	rightPos int
	rightVal db.Value
}

// Plan is a compiled rewriting for one C_aggforest query. It is built
// from the schema alone — no instance data — so callers may cache one
// Plan per query shape and Execute it against successive versions of an
// instance.
type Plan struct {
	q       cq.AggQuery
	atoms   []atomInfo
	root    int
	aggPos  int // attr position of the aggregation variable in the root atom; -1 for COUNT(*)
	grouped bool
}

// Grouped reports whether the plan's query has grouping attributes.
func (p *Plan) Grouped() bool { return p.grouped }

// Analyze checks class membership against the schema and compiles the
// join tree. The query must already have its head built (cq.AggQuery
// BuildHead) and validate against the schema; Baseline and the planner
// both guarantee that before calling.
func Analyze(schema *db.Schema, q cq.AggQuery) (*Plan, error) {
	if len(q.Underlying.Disjuncts) != 1 {
		return nil, fmt.Errorf("%w: unions of conjunctive queries are not rewritable here", ErrNotInClass)
	}
	d := q.Underlying.Disjuncts[0]
	if !d.SelfJoinFree() {
		return nil, fmt.Errorf("%w: query has self-joins", ErrNotInClass)
	}
	switch q.Op {
	case cq.CountStar, cq.Count, cq.Sum, cq.Min, cq.Max:
	default:
		return nil, fmt.Errorf("%w: operator %s not supported by the rewriting", ErrNotInClass, q.Op)
	}

	// Variable occurrences.
	occs := map[string][]varOcc{}
	for ai, a := range d.Atoms {
		rs := schema.Relation(a.Rel)
		if !rs.HasKey() {
			return nil, fmt.Errorf("%w: relation %s has no key constraint", ErrNotInClass, rs.Name)
		}
		for p, t := range a.Args {
			if !t.IsConst {
				occs[t.Var] = append(occs[t.Var], varOcc{ai, p})
			}
		}
	}
	// Conditions must be local to one atom.
	condsOf := make([][]cq.Condition, len(d.Atoms))
	for _, c := range d.Conds {
		atomsUsed := map[int]bool{}
		for _, t := range []cq.Term{c.Left, c.Right} {
			if t.IsConst {
				continue
			}
			for _, o := range occs[t.Var] {
				atomsUsed[o.atom] = true
			}
		}
		if len(atomsUsed) != 1 {
			return nil, fmt.Errorf("%w: condition %s spans multiple atoms", ErrNotInClass, c)
		}
		for ai := range atomsUsed {
			condsOf[ai] = append(condsOf[ai], c)
		}
	}

	// The head is positional: group variables then the aggregation
	// variable (when present).
	head := d.Head
	nGroup := len(head)
	aggVar := ""
	if q.Op.NeedsVar() {
		nGroup--
		aggVar = head[nGroup]
	}

	// Root: the atom owning the aggregation variable; for COUNT(*), try
	// every atom.
	var rootCandidates []int
	if aggVar != "" {
		aggOccs := occs[aggVar]
		seen := map[int]bool{}
		for _, o := range aggOccs {
			if !seen[o.atom] {
				seen[o.atom] = true
				rootCandidates = append(rootCandidates, o.atom)
			}
		}
	} else {
		for ai := range d.Atoms {
			rootCandidates = append(rootCandidates, ai)
		}
	}

	var firstErr error
	for _, root := range rootCandidates {
		p, err := buildTree(schema, q, d, root, occs, condsOf, nGroup, aggVar)
		if err == nil {
			return p, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("%w: no valid root", ErrNotInClass)
	}
	return nil, firstErr
}

func buildTree(schema *db.Schema, q cq.AggQuery, d cq.CQ, root int,
	occs map[string][]varOcc, condsOf [][]cq.Condition,
	nGroup int, aggVar string) (*Plan, error) {

	n := len(d.Atoms)
	atoms := make([]atomInfo, n)
	for ai, a := range d.Atoms {
		atoms[ai] = atomInfo{
			atom:   a,
			rel:    schema.Relation(a.Rel),
			parent: -1,
			conds:  condsOf[ai],
		}
	}

	// Adjacency via shared variables.
	shared := map[[2]int][]string{}
	for v, os := range occs {
		for i := 0; i < len(os); i++ {
			for j := i + 1; j < len(os); j++ {
				a, bb := os[i].atom, os[j].atom
				if a == bb {
					continue
				}
				if a > bb {
					a, bb = bb, a
				}
				key := [2]int{a, bb}
				if !containsStr(shared[key], v) {
					shared[key] = append(shared[key], v)
				}
			}
		}
	}

	// BFS from the root, requiring a tree.
	visited := make([]bool, n)
	visited[root] = true
	queue := []int{root}
	order := []int{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for other := 0; other < n; other++ {
			if other == cur {
				continue
			}
			key := [2]int{cur, other}
			if key[0] > key[1] {
				key = [2]int{other, cur}
			}
			if len(shared[key]) == 0 {
				continue
			}
			if visited[other] {
				// Sharing with an already-visited atom other than the
				// parent breaks the tree shape.
				if atoms[cur].parent != other && atoms[other].parent != cur {
					return nil, fmt.Errorf("%w: join graph is not a tree", ErrNotInClass)
				}
				continue
			}
			visited[other] = true
			atoms[other].parent = cur
			atoms[cur].children = append(atoms[cur].children, other)
			queue = append(queue, other)
			order = append(order, other)
		}
	}
	for ai := range atoms {
		if !visited[ai] {
			return nil, fmt.Errorf("%w: query is a cartesian product", ErrNotInClass)
		}
	}

	// Validate join edges: every shared variable between child and
	// parent must sit on a key position of the child, and the shared
	// variables must cover the child's entire key.
	for ai := range atoms {
		if atoms[ai].parent < 0 {
			continue
		}
		parent := atoms[ai].parent
		key := [2]int{ai, parent}
		if key[0] > key[1] {
			key = [2]int{parent, ai}
		}
		vars := shared[key]
		keyCovered := map[int]bool{}
		var edges []joinEdge
		for _, v := range vars {
			var childPos, parentPos []int
			for _, o := range occs[v] {
				switch o.atom {
				case ai:
					childPos = append(childPos, o.pos)
				case parent:
					parentPos = append(parentPos, o.pos)
				}
			}
			for _, cp := range childPos {
				if !isKeyPos(atoms[ai].rel, cp) {
					return nil, fmt.Errorf("%w: join on non-key attribute %s of %s",
						ErrNotInClass, atoms[ai].rel.Attrs[cp].Name, atoms[ai].rel.Name)
				}
				keyCovered[cp] = true
				edges = append(edges, joinEdge{childKeyPos: cp, parentPos: parentPos[0]})
			}
		}
		// Key positions bound by constants also count as covered.
		for _, kp := range atoms[ai].rel.Key {
			if atoms[ai].atom.Args[kp].IsConst {
				keyCovered[kp] = true
			}
		}
		for _, kp := range atoms[ai].rel.Key {
			if !keyCovered[kp] {
				return nil, fmt.Errorf("%w: join does not cover the key of %s",
					ErrNotInClass, atoms[ai].rel.Name)
			}
		}
		atoms[ai].parentJoin = edges
	}

	// Compile the per-atom local filters and child-key layouts once so
	// Execute's inner loops work purely on tuple positions.
	for ai := range atoms {
		a := atoms[ai].atom
		firstPos := map[string]int{}
		var lc localCheck
		for pos, t := range a.Args {
			if t.IsConst {
				lc.constPos = append(lc.constPos, pos)
				lc.constVal = append(lc.constVal, t.Const)
				continue
			}
			if fp, ok := firstPos[t.Var]; ok {
				lc.dupPairs = append(lc.dupPairs, [2]int{fp, pos})
			} else {
				firstPos[t.Var] = pos
			}
		}
		for _, c := range atoms[ai].conds {
			cc := condCheck{op: c.Op, leftPos: -1, rightPos: -1}
			if c.Left.IsConst {
				cc.leftVal = c.Left.Const
			} else {
				cc.leftPos = firstPos[c.Left.Var]
			}
			if c.Right.IsConst {
				cc.rightVal = c.Right.Const
			} else {
				cc.rightPos = firstPos[c.Right.Var]
			}
			lc.conds = append(lc.conds, cc)
		}
		atoms[ai].local = lc

		rel := atoms[ai].rel
		atoms[ai].keyFromParent = make([]int, len(rel.Key))
		atoms[ai].keyConsts = make(db.Tuple, len(rel.Key))
		for i, kp := range rel.Key {
			atoms[ai].keyFromParent[i] = -1
			if a.Args[kp].IsConst {
				atoms[ai].keyConsts[i] = a.Args[kp].Const
				continue
			}
			for _, edge := range atoms[ai].parentJoin {
				if edge.childKeyPos == kp {
					atoms[ai].keyFromParent[i] = edge.parentPos
					break
				}
			}
		}
	}

	// Grouping variables: each is owned by one atom. Join variables
	// occur in several atoms; prefer an occurrence on the root so the
	// per-group evaluation can reuse the group-independent child states.
	for hi := 0; hi < nGroup; hi++ {
		v := d.Head[hi]
		os := occs[v]
		if len(os) == 0 {
			return nil, fmt.Errorf("conquer: unbound head variable %s", v)
		}
		owner := os[0]
		for _, o := range os {
			if o.atom == root {
				owner = o
				break
			}
		}
		atoms[owner.atom].groupPositions = append(atoms[owner.atom].groupPositions,
			groupPos{headIndex: hi, pos: owner.pos})
	}

	// subtreeGroupIdx: the head indices owned by each atom's subtree,
	// used by Execute to enumerate reachable group projections.
	var fillSubtree func(ai int) []int
	fillSubtree = func(ai int) []int {
		var idx []int
		for _, gp := range atoms[ai].groupPositions {
			idx = append(idx, gp.headIndex)
		}
		for _, ci := range atoms[ai].children {
			idx = append(idx, fillSubtree(ci)...)
		}
		sort.Ints(idx)
		atoms[ai].subtreeGroupIdx = idx
		return idx
	}
	fillSubtree(root)

	aggPos := -1
	if aggVar != "" {
		for _, o := range occs[aggVar] {
			if o.atom == root {
				aggPos = o.pos
				break
			}
		}
		if aggPos < 0 {
			return nil, fmt.Errorf("%w: aggregation attribute not on the root relation", ErrNotInClass)
		}
	}

	return &Plan{
		q:       q,
		atoms:   atoms,
		root:    root,
		aggPos:  aggPos,
		grouped: nGroup > 0,
	}, nil
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func isKeyPos(rs *db.RelationSchema, pos int) bool {
	for _, k := range rs.Key {
		if k == pos {
			return true
		}
	}
	return false
}

// factState caches per-fact pass/cert/poss flags for one group filter.
// States live in a dense slice indexed by FactID (each fact is evaluated
// under exactly one atom — the query is self-join-free); done marks the
// memo entry as computed.
type factState struct {
	done bool
	pass bool
	cert bool
	poss bool
	// safe: every witness through this fact's subtree uses only facts
	// below it that are safe (singleton key-equal groups). The fact's
	// OWN group size is the caller's knowledge — it is folded in where
	// the group is enumerated (the child loop for child atoms, the
	// answer aggregation for root facts). Only meaningful when poss.
	safe bool
}

// failedState is the read-only state returned for root facts excluded
// by a group filter on the shared-memo path.
var failedState = &factState{done: true}

// atomData is the per-atom slice of the instance the executor scans:
// the relation's facts and the key-projection lookup map, both served
// from the (memoized) Indexes.
type atomData struct {
	facts  []db.FactID
	idx    *relIndex     // child lookup by key-projection hash
	groups [][]db.FactID // key-equal groups, enumeration order
	keyPos []int
	// keyConsts are the atom's keyConsts as cells of the instance;
	// keyMiss reports a constant string no fact stores.
	keyConsts []db.Cell
	keyMiss   bool
}

// executor binds a Plan to one instance for a single Execute call.
type executor struct {
	*Plan
	in   *db.Instance
	data []atomData
}

// Execute runs the interval DP over the instance. ix supplies the
// memoized per-relation lookup maps (pass nil to index from scratch);
// parallelism bounds the worker pool fanned out over grouping keys (≤ 1
// runs sequentially). Cancelling ctx aborts the evaluation cooperatively
// and returns the context's error.
func (p *Plan) Execute(ctx context.Context, in *db.Instance, ix *Indexes, parallelism int) ([]GroupRange, error) {
	if ix == nil || ix.in != in {
		ix = NewIndexes(in)
	}
	tables := ix.tables()
	x := &executor{Plan: p, in: in, data: make([]atomData, len(p.atoms))}
	for ai := range p.atoms {
		rel := p.atoms[ai].rel
		ad := atomData{keyPos: rel.Key, keyConsts: make([]db.Cell, len(rel.Key))}
		for i, pp := range p.atoms[ai].keyFromParent {
			if pp < 0 {
				c, ok := in.Dict().CellOf(p.atoms[ai].keyConsts[i])
				ad.keyConsts[i], ad.keyMiss = c, ad.keyMiss || !ok
			}
		}
		if ri := tables[rel.Canon()]; ri != nil {
			ad.facts = ri.facts
			ad.idx = ri
			ad.groups = ri.groups
		}
		x.data[ai] = ad
	}
	return x.run(ctx, parallelism)
}

func (x *executor) run(ctx context.Context, parallelism int) ([]GroupRange, error) {
	// When every grouping attribute lives on the root atom, the child
	// states are group-independent: compute them once and filter only
	// the root facts per group (this is what keeps the rewriting's cost
	// one scan, not one scan per group, on high-cardinality groupings
	// like Q3's ORDER keys).
	rootOnlyGrouping := true
	for ai := range x.atoms {
		if ai != x.root && len(x.atoms[ai].groupPositions) > 0 {
			rootOnlyGrouping = false
			break
		}
	}

	// Root key-equal groups, straight from the memoized partition.
	rootData := x.data[x.root]
	allRootGroups := make([]rootGroup, len(rootData.groups))
	for i, members := range rootData.groups {
		allRootGroups[i] = rootGroup{members: members}
	}

	// Shared, group-independent states, pre-populated sequentially so
	// the parallel per-group closures below only ever read the memo.
	// activeGroups keeps only the root key-equal groups able to start a
	// witness at all — the rest contribute [0,0] to COUNT/SUM bounds,
	// stay escapable for MIN/MAX, and can never certify an answer, so
	// every aggregation below skips them.
	sharedEval := x.makeEval(nil)
	activeGroups := allRootGroups[:0:0]
	for ri, rg := range allRootGroups {
		if ri&255 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		anyPoss := false
		for _, f := range rg.members {
			if sharedEval(x.root, f).poss {
				anyPoss = true
			}
		}
		if anyPoss {
			activeGroups = append(activeGroups, rg)
		}
	}

	// Candidate group keys and, for grouped queries, the root key-equal
	// groups able to contribute to each.
	groupKeys := []db.Tuple{{}}
	var perGroup [][]rootGroup
	if x.grouped {
		var err error
		groupKeys, perGroup, err = x.bucketByGroupKey(ctx, activeGroups, sharedEval)
		if err != nil {
			return nil, err
		}
	}

	results := make([]*GroupRange, len(groupKeys))
	err := workpool.ForEach(ctx, parallelism, len(groupKeys), func(ctx context.Context, gi int) error {
		g := groupKeys[gi]
		rgs := activeGroups
		if x.grouped {
			rgs = perGroup[gi]
		}
		var evalFact func(ai int, f db.FactID) *factState
		switch {
		case !x.grouped:
			evalFact = sharedEval
		case rootOnlyGrouping:
			// Shared child states; per-group filter applied to root
			// facts on top of the shared pass/cert/poss.
			evalFact = func(ai int, f db.FactID) *factState {
				st := sharedEval(ai, f)
				if ai != x.root || !st.pass {
					return st
				}
				for _, gp := range x.atoms[x.root].groupPositions {
					if !x.in.ValueAt(f, gp.pos).Equal(g[gp.headIndex]) {
						return failedState
					}
				}
				return st
			}
		default:
			// Grouping attributes on child atoms: the child states are
			// group-dependent, so evaluate afresh — but only over this
			// key's bucket of root groups.
			evalFact = x.makeEval(g)
		}
		res, err := x.aggregate(g, rgs, evalFact)
		if err != nil {
			return err
		}
		results[gi] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []GroupRange
	for _, res := range results {
		if res != nil {
			out = append(out, *res)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Compare(out[j].Key) < 0 })
	return out, nil
}

// bucketByGroupKey enumerates the candidate group keys and, per key,
// the root key-equal groups able to contribute a row to it. A root
// fact's witness fixes one member per referenced child key-equal group
// (full-key joins are functional), so its reachable group keys are the
// merges of its own grouping positions with one reachable projection
// per grouped child subtree. Enumerating those per root fact, memoized
// bottom-up, replaces the former full-join evaluation of the underlying
// query — the candidate keys fall out of the same scan that buckets the
// root groups. Key-equal groups absent from a key's bucket cannot
// affect it: no member matches the key's group filter, so they add
// [0,0] to COUNT/SUM bounds, stay escapable for MIN/MAX, and can never
// certify the key as a consistent answer.
func (x *executor) bucketByGroupKey(ctx context.Context, rgs []rootGroup,
	sharedEval func(int, db.FactID) *factState) ([]db.Tuple, [][]rootGroup, error) {

	nG := len(x.q.GroupBy)
	identity := make([]int, nG)
	for i := range identity {
		identity[i] = i
	}
	scratch := make([]db.Cell, x.maxKeyLen())

	// reach(ai, f): the distinct group projections attainable by a
	// witness whose subtree at atom ai goes through fact f; nil when no
	// such witness exists. Projections are full-width tuples with only
	// the subtree-owned head positions filled.
	reachMemo := make([][]db.Tuple, x.in.NumFacts())
	reachDone := make([]bool, x.in.NumFacts())
	var reach func(ai int, f db.FactID) []db.Tuple
	reach = func(ai int, f db.FactID) []db.Tuple {
		if reachDone[f] {
			return reachMemo[f]
		}
		reachDone[f] = true
		if !sharedEval(ai, f).poss {
			return nil
		}
		base := make(db.Tuple, nG)
		for _, gp := range x.atoms[ai].groupPositions {
			base[gp.headIndex] = x.in.ValueAt(f, gp.pos)
		}
		acc := []db.Tuple{base}
		for _, ci := range x.atoms[ai].children {
			sub := x.atoms[ci].subtreeGroupIdx
			if len(sub) == 0 {
				// No grouping below this child: poss already guarantees
				// the subtree completes, and it binds no head position.
				continue
			}
			members := x.childMembers(ci, f, scratch)
			var childProjs []db.Tuple
			seen := map[string]bool{}
			for _, m := range members {
				for _, p := range reach(ci, m) {
					k := p.Key(sub)
					if !seen[k] {
						seen[k] = true
						childProjs = append(childProjs, p)
					}
				}
			}
			merged := make([]db.Tuple, 0, len(acc)*len(childProjs))
			for _, a := range acc {
				for _, c := range childProjs {
					mt := a.Clone()
					for _, hi := range sub {
						mt[hi] = c[hi]
					}
					merged = append(merged, mt)
				}
			}
			acc = merged
		}
		reachMemo[f] = acc
		return acc
	}

	type bucket struct {
		key  db.Tuple
		gids []int // indices into rgs
	}
	buckets := map[string]*bucket{}
	for ri := range rgs {
		if ri&255 == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		for _, f := range rgs[ri].members {
			for _, g := range reach(x.root, f) {
				k := g.Key(identity)
				b := buckets[k]
				if b == nil {
					b = &bucket{key: g}
					buckets[k] = b
				}
				// Facts of one key-equal group are scanned
				// consecutively, so a trailing-id check dedupes.
				if n := len(b.gids); n == 0 || b.gids[n-1] != ri {
					b.gids = append(b.gids, ri)
				}
			}
		}
	}

	keys := make([]db.Tuple, 0, len(buckets))
	for _, b := range buckets {
		keys = append(keys, b.key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	perGroup := make([][]rootGroup, len(keys))
	for gi, g := range keys {
		b := buckets[g.Key(identity)]
		groups := make([]rootGroup, len(b.gids))
		for i, ri := range b.gids {
			groups[i] = rgs[ri]
		}
		perGroup[gi] = groups
	}
	return keys, perGroup, nil
}

// maxKeyLen is the widest key among the plan's relations — the scratch
// size childKey needs.
func (x *executor) maxKeyLen() int {
	n := 0
	for ai := range x.atoms {
		if k := len(x.atoms[ai].rel.Key); k > n {
			n = k
		}
	}
	return n
}

// localPass evaluates atom-level constants and conditions on a fact.
// All checks are position-compiled (localCheck), so this allocates
// nothing on the hot path.
func (x *executor) localPass(ai int, f db.FactID) bool {
	t := x.in.Row(f)
	lc := &x.atoms[ai].local
	for i, pos := range lc.constPos {
		if !lc.constVal[i].Equal(t.Value(pos)) {
			return false
		}
	}
	for _, d := range lc.dupPairs {
		if !t.Value(d[0]).Equal(t.Value(d[1])) {
			return false
		}
	}
	for _, c := range lc.conds {
		l, r := c.leftVal, c.rightVal
		if c.leftPos >= 0 {
			l = t.Value(c.leftPos)
		}
		if c.rightPos >= 0 {
			r = t.Value(c.rightPos)
		}
		if !c.op.Apply(l, r) {
			return false
		}
	}
	return true
}

// makeEval builds a memoized bottom-up state evaluator. A nil group
// key disables group filtering (used for the shared child states).
// The memo is one dense slice indexed by FactID; the evaluator is for
// single-goroutine use (the shared memo is pre-populated sequentially
// before any parallel readers see it).
func (x *executor) makeEval(g db.Tuple) func(ai int, f db.FactID) *factState {
	states := make([]factState, x.in.NumFacts())
	scratch := make([]db.Cell, x.maxKeyLen())
	var evalFact func(ai int, f db.FactID) *factState
	evalFact = func(ai int, f db.FactID) *factState {
		st := &states[f]
		if st.done {
			return st
		}
		st.done = true
		st.pass = x.localPass(ai, f)
		if st.pass && g != nil {
			// Group filter: owned grouping positions must match g.
			for _, gp := range x.atoms[ai].groupPositions {
				if !x.in.ValueAt(f, gp.pos).Equal(g[gp.headIndex]) {
					st.pass = false
					break
				}
			}
		}
		if !st.pass {
			return st
		}
		st.cert, st.poss, st.safe = true, true, true
		for _, ci := range x.atoms[ai].children {
			// The referenced child key-equal group.
			members := x.childMembers(ci, f, scratch)
			if len(members) == 0 {
				st.cert, st.poss = false, false
				return st
			}
			// A child group with alternatives makes every witness through
			// it use a fact from a non-singleton group — unsafe; a
			// singleton child must itself be safe below.
			if len(members) != 1 {
				st.safe = false
			}
			anyPoss, allCert := false, true
			for _, m := range members {
				ms := evalFact(ci, m)
				if ms.poss {
					anyPoss = true
				}
				if !ms.cert {
					allCert = false
				}
				if len(members) == 1 && !ms.safe {
					st.safe = false
				}
			}
			st.cert = st.cert && allCert
			st.poss = st.poss && anyPoss
		}
		return st
	}
	return evalFact
}

// childMembers resolves the child key-equal group referenced by the
// parent fact: join positions take the parent's cells, constant key
// positions take the constant's. scratch must hold at least
// len(rel.Key) cells; the layout (keyFromParent/keyConsts) is
// precompiled by Analyze and the constants encoded by Execute. The
// lookup is a HashCell fold over the key cells — the hash the relIndex
// was built with (HashRowOn) — verified against the bucket's
// representative fact by cell equality, so no key value is ever
// materialized. A constant string absent from the instance dictionary
// means no such group exists.
func (x *executor) childMembers(ci int, parentFact db.FactID, scratch []db.Cell) []db.FactID {
	a := &x.atoms[ci]
	ad := &x.data[ci]
	if ad.idx == nil || ad.keyMiss {
		return nil
	}
	pt := x.in.Row(parentFact)
	cells := scratch[:len(a.keyFromParent)]
	h := db.HashSeed
	for i, pp := range a.keyFromParent {
		if pp >= 0 {
			cells[i] = pt.Cell(pp)
		} else {
			cells[i] = ad.keyConsts[i]
		}
		h = db.HashCell(h, cells[i])
	}
	return ad.idx.lookup(x.in, ad.keyPos, h, cells)
}

// aggregate combines per-root-group optima into the group's interval.
// Returns nil when the group is not a consistent answer.
func (x *executor) aggregate(g db.Tuple, rootGroups []rootGroup,
	evalFact func(int, db.FactID) *factState) (*GroupRange, error) {

	op := x.q.Op
	value := func(f db.FactID) (int64, bool, error) {
		switch op {
		case cq.CountStar:
			return 1, true, nil
		case cq.Count:
			v := x.in.ValueAt(f, x.aggPos)
			if v.IsNull() {
				return 0, true, nil
			}
			return 1, true, nil
		case cq.Sum:
			v := x.in.ValueAt(f, x.aggPos)
			if v.IsNull() {
				return 0, true, nil
			}
			if v.Kind() != db.KindInt {
				return 0, false, fmt.Errorf("%w: SUM over non-integer values", ErrNotInClass)
			}
			n := v.AsInt()
			if n < 0 {
				return 0, false, fmt.Errorf("%w: SUM over negative values is not rewritable here", ErrNotInClass)
			}
			return n, true, nil
		default:
			return 0, false, nil
		}
	}

	// Consistency: some root group contributes a row to g in every
	// repair. Only group keys can be non-answers — a scalar query
	// always yields its one row — so skip the scan entirely otherwise.
	if x.grouped {
		consistent := false
		for _, rg := range rootGroups {
			all := true
			for _, f := range rg.members {
				if !evalFact(x.root, f).cert {
					all = false
					break
				}
			}
			if all && len(rg.members) > 0 {
				consistent = true
				break
			}
		}
		if !consistent {
			return nil, nil
		}
	}

	switch op {
	case cq.CountStar, cq.Count, cq.Sum:
		var glb, lub int64
		// Mirrors the SAT path's consistent-part folding condition: the
		// flag survives only while every witness of this answer is made
		// of safe facts — a possible root contributor in a non-singleton
		// group, or one whose subtree touches a non-singleton group,
		// kills it. Zero-weight contributors (COUNT over NULL, SUM over
		// NULL or 0) are exempt: the solver drops those witnesses before
		// the unsafe scan, so they must not kill the flag here either.
		fromCP := true
		for _, rg := range rootGroups {
			minC := int64(math.MaxInt64)
			maxC := int64(0)
			for _, f := range rg.members {
				st := evalFact(x.root, f)
				v, ok, err := value(f)
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, fmt.Errorf("%w: unsupported value", ErrNotInClass)
				}
				if st.poss && v != 0 && (len(rg.members) != 1 || !st.safe) {
					fromCP = false
				}
				var cMin, cMax int64
				switch {
				case st.cert:
					cMin, cMax = v, v
				case st.poss:
					cMin, cMax = 0, v
				default:
					cMin, cMax = 0, 0
				}
				if cMin < minC {
					minC = cMin
				}
				if cMax > maxC {
					maxC = cMax
				}
			}
			var okG, okL bool
			glb, okG = cq.AddInt64(glb, minC)
			lub, okL = cq.AddInt64(lub, maxC)
			if !okG || !okL {
				return nil, fmt.Errorf("conquer: %s: %w", op, cq.ErrOverflow)
			}
		}
		return &GroupRange{Key: g, GLB: db.Int(glb), LUB: db.Int(lub), FromConsistentPart: fromCP}, nil
	case cq.Min, cq.Max:
		return x.aggregateMinMax(g, rootGroups, evalFact)
	default:
		return nil, fmt.Errorf("%w: operator %s", ErrNotInClass, op)
	}
}

func (x *executor) aggregateMinMax(g db.Tuple, rootGroups []rootGroup,
	evalFact func(int, db.FactID) *factState) (*GroupRange, error) {

	op := x.q.Op
	// emptyPossible: every root group has an escape (an alternative
	// whose row can be avoided).
	emptyPossible := true
	for _, rg := range rootGroups {
		escapable := false
		for _, f := range rg.members {
			if !evalFact(x.root, f).cert {
				escapable = true
				break
			}
		}
		if !escapable && len(rg.members) > 0 {
			emptyPossible = false
			break
		}
	}

	var bestPoss db.Value // extreme attainable value (lub for MAX, glb for MIN)
	var forced db.Value   // the guaranteed endpoint
	for _, rg := range rootGroups {
		// Per group: the guaranteed value when every member is certain.
		var groupWorst db.Value // worst forced value among alternatives
		allCert := len(rg.members) > 0
		for _, f := range rg.members {
			st := evalFact(x.root, f)
			v := x.in.ValueAt(f, x.aggPos)
			if v.IsNull() {
				allCert = false
				continue
			}
			if st.poss {
				if bestPoss.IsNull() || better(op, v, bestPoss) {
					bestPoss = v
				}
			}
			if !st.cert {
				allCert = false
				continue
			}
			if groupWorst.IsNull() || better(op, groupWorst, v) {
				groupWorst = v
			}
		}
		if allCert && !groupWorst.IsNull() {
			// Every repair contains a row from this group with value at
			// least (MAX) / at most (MIN) groupWorst.
			if forced.IsNull() || better(op, groupWorst, forced) {
				forced = groupWorst
			}
		}
	}

	res := &GroupRange{Key: g, EmptyPossible: emptyPossible}
	if op == cq.Max {
		res.LUB = bestPoss
		if !emptyPossible {
			res.GLB = forced
		}
	} else {
		res.GLB = bestPoss
		if !emptyPossible {
			res.LUB = forced
		}
	}
	return res, nil
}

// better reports whether a is more extreme than b for the operator
// (greater for MAX, smaller for MIN).
func better(op cq.AggOp, a, b db.Value) bool {
	if op == cq.Max {
		return a.Compare(b) > 0
	}
	return a.Compare(b) < 0
}

// Describe renders the join tree for diagnostics.
func (p *Plan) Describe() string {
	var b strings.Builder
	for ai, a := range p.atoms {
		fmt.Fprintf(&b, "%d: %s parent=%d\n", ai, a.rel.Name, a.parent)
	}
	return b.String()
}
