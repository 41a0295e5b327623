package cq

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"aggcavsat/internal/db"
)

// Compiled query plans. A CQ is compiled once per shape into a program
// over db.Cell, the pointer-free exact encoding of a stored value (kind
// plus a 64-bit payload: int64 bits, float64 bits or dictionary code):
//
//   - Variables resolve to integer slots of a flat []db.Cell frame, and
//     only live variables get one: a variable is live when the head, a
//     condition, a later probe or a within-atom check reads it. The
//     per-column variables of a wide relation that nothing reads are
//     never loaded.
//   - Index probes are []db.Cell, looked up in the instance's memoised
//     partition of the atom's relation on the probed positions
//     (db.Partition.Lookup): one verified lookup returns exactly the
//     facts whose cells equal the probe's. Atom constants are encoded
//     once, at compile time; a string no fact stores makes the whole
//     program empty.
//   - Conditions are kernels over cells with Value.Compare semantics
//     (db.Dict.CompareCells): = and != compare string codes, and
//     ordered string comparisons compare ranks (db.Ranks), a constant
//     no fact stores ranking between its neighbours. LIKE-prefix
//     decodes the cells and uses CmpOp.Apply.
//   - Emitted assignments are deduplicated and grouped by their cells
//     (see bag in witness.go); db.Values are built only where witnesses
//     leave the evaluator: a new witness's answer, a new group's key and
//     a folded value.
//
// The plan — atom order and condition attachment — is planCQ's, and
// candidates are visited in insertion order, so the enumeration is
// deterministic; the witness bag is checked against a brute-force
// reference evaluator by the property tests in compile_test.go and
// reference_test.go.
//
// Semantics note: a position whose variable is bound by an earlier
// atom in plan order (or a constant) is an index probe and matches with
// cell equality, i.e. kind-exact (EqualExact: Int(1) does not
// probe-match Float(1)); a variable repeated within one atom is checked
// with Value.Equal semantics (Compare-based, so Int(1) matches
// Float(1)).

// program is a compiled CQ.
type program struct {
	numSlots  int
	headSlots []int
	steps     []pstep
	// empty marks a program no assignment satisfies: an atom constant
	// is a string absent from the instance dictionary.
	empty bool
}

// slotPos pairs a tuple position with a frame slot.
type slotPos struct{ pos, slot int }

// pstep matches one atom, in plan order.
type pstep struct {
	rel db.RelID

	// Index probe over the positions bound by constants or earlier
	// steps. Empty lookupPos means a full scan of the relation.
	lookupPos   []int
	lookupSlot  []int     // slot supplying position i's probe cell; -1 = constant
	lookupConst []db.Cell // probe constant where lookupSlot[i] == -1

	binds  []slotPos // live free positions: the cell at pos binds frame[slot]
	checks []slotPos // within-atom repeated vars: the cell at pos must Compare-equal frame[slot]
	conds  []func(frame []db.Cell) bool
}

// compileCQ lowers q onto planCQ's atom order. The caller has validated q.
func compileCQ(in *db.Instance, q CQ) *program {
	pl := planCQ(in, q)
	d := in.Dict()
	// A variable is live when something reads its slot: the head, a
	// condition, or a second occurrence (a later probe or a within-atom
	// check). Any other variable is bound once and never read.
	read := make(map[string]bool)
	for _, h := range q.Head {
		read[h] = true
	}
	for _, c := range q.Conds {
		for _, t := range []Term{c.Left, c.Right} {
			if !t.IsConst {
				read[t.Var] = true
			}
		}
	}
	seen := make(map[string]bool)
	strVar := make(map[string]bool)
	for _, a := range q.Atoms {
		attrs := in.Schema().Relation(a.Rel).Attrs
		for i, t := range a.Args {
			if !t.IsConst {
				read[t.Var] = read[t.Var] || seen[t.Var]
				seen[t.Var] = true
				strVar[t.Var] = strVar[t.Var] || attrs[i].Kind == db.KindString
			}
		}
	}

	prog := &program{steps: make([]pstep, 0, len(pl.order))}
	slotOf := make(map[string]int)
	boundBefore := make(map[string]bool)
	for step, ai := range pl.order {
		atom := q.Atoms[ai]
		rel, _ := in.Schema().RelID(atom.Rel)
		st := pstep{rel: rel}
		for i, t := range atom.Args {
			switch {
			case t.IsConst:
				c, ok := d.CellOf(t.Const)
				prog.empty = prog.empty || !ok
				st.lookupPos = append(st.lookupPos, i)
				st.lookupSlot = append(st.lookupSlot, -1)
				st.lookupConst = append(st.lookupConst, c)
			case boundBefore[t.Var]:
				st.lookupPos = append(st.lookupPos, i)
				st.lookupSlot = append(st.lookupSlot, slotOf[t.Var])
				st.lookupConst = append(st.lookupConst, db.Cell{})
			default:
				if s, ok := slotOf[t.Var]; ok {
					// Repeated within this atom: the first occurrence
					// binds the slot, later ones Equal-check it.
					st.checks = append(st.checks, slotPos{pos: i, slot: s})
				} else if read[t.Var] {
					s = prog.numSlots
					prog.numSlots++
					slotOf[t.Var] = s
					st.binds = append(st.binds, slotPos{pos: i, slot: s})
				}
			}
		}
		for _, ci := range pl.condsAfter[step] {
			st.conds = append(st.conds, compileCond(d, q.Conds[ci], slotOf, strVar))
		}
		prog.steps = append(prog.steps, st)
		for _, t := range atom.Args {
			if !t.IsConst {
				boundBefore[t.Var] = true
			}
		}
	}
	prog.headSlots = make([]int, len(q.Head))
	for i, h := range q.Head {
		prog.headSlots[i] = slotOf[h]
	}
	return prog
}

// cmpMask is the set of Compare results a comparison operator accepts:
// bit c+1 for result c.
type cmpMask uint8

func maskOf(op CmpOp) cmpMask {
	switch op {
	case OpEQ:
		return 0b010
	case OpNE:
		return 0b101
	case OpLT:
		return 0b001
	case OpLE:
		return 0b011
	case OpGT:
		return 0b100
	case OpGE:
		return 0b110
	default:
		panic("cq: no comparison mask for " + op.String())
	}
}

func (m cmpMask) holds(c int) bool { return m>>(c+1)&1 != 0 }

// compileCond closes a condition over frame slots, encoding constants
// (and deciding constant-constant comparisons) out of the per-row path.
// strVar marks the variables bound at a string attribute. = and !=
// compare cells, so strings by code. An ordered comparison of two
// operands that may both be strings compares them by the rank of the
// dictionary's rank table (db.Ranks), built on the first such
// compilation; a string constant no fact stores gets the rank between
// its neighbours.
func compileCond(d *db.Dict, c Condition, slotOf map[string]int, strVar map[string]bool) func([]db.Cell) bool {
	op := c.Op
	if c.Left.IsConst && c.Right.IsConst {
		res := op.Apply(c.Left.Const, c.Right.Const)
		return func([]db.Cell) bool { return res }
	}
	ls, lc, lok := operand(d, c.Left, slotOf)
	rs, rc, rok := operand(d, c.Right, slotOf)
	if op == OpLikePrefix || op == OpNotLikePrefix {
		// LIKE-prefix matches bytes: decode the slots and compare Values.
		lv, rv := c.Left.Const, c.Right.Const
		return func(f []db.Cell) bool {
			l, r := lv, rv
			if ls >= 0 {
				l = d.CellValue(f[ls])
			}
			if rs >= 0 {
				r = d.CellValue(f[rs])
			}
			return op.Apply(l, r)
		}
	}
	if !lok || !rok {
		// A string constant no fact stores (the other side is a slot):
		// compare with the constant on the right.
		slot, k := ls, c.Right
		if !lok {
			slot, k, op = rs, c.Left, op.flip()
		}
		s := k.Const.AsString()
		m := maskOf(op)
		if op == OpEQ || op == OpNE {
			return func(f []db.Cell) bool { return m.holds(d.CompareString(f[slot], s)) }
		}
		rk := d.Ranks()
		at := rk.Of(s)
		return func(f []db.Cell) bool { return m.holds(rk.CompareString(f[slot], s, at)) }
	}
	if op == OpEQ || op == OpNE {
		eq := op == OpEQ
		switch {
		case ls < 0:
			return func(f []db.Cell) bool { return d.EqualCells(lc, f[rs]) == eq }
		case rs < 0:
			return func(f []db.Cell) bool { return d.EqualCells(f[ls], rc) == eq }
		default:
			return func(f []db.Cell) bool { return d.EqualCells(f[ls], f[rs]) == eq }
		}
	}
	m := maskOf(op)
	mayString := func(t Term) bool {
		if t.IsConst {
			return t.Const.Kind() == db.KindString
		}
		return strVar[t.Var]
	}
	if mayString(c.Left) && mayString(c.Right) {
		rk := d.Ranks()
		switch {
		case ls < 0:
			return func(f []db.Cell) bool { return m.holds(rk.CompareCells(lc, f[rs])) }
		case rs < 0:
			return func(f []db.Cell) bool { return m.holds(rk.CompareCells(f[ls], rc)) }
		default:
			return func(f []db.Cell) bool { return m.holds(rk.CompareCells(f[ls], f[rs])) }
		}
	}
	switch {
	case ls < 0:
		return func(f []db.Cell) bool { return m.holds(d.CompareCells(lc, f[rs])) }
	case rs < 0:
		return func(f []db.Cell) bool { return m.holds(d.CompareCells(f[ls], rc)) }
	default:
		return func(f []db.Cell) bool { return m.holds(d.CompareCells(f[ls], f[rs])) }
	}
}

// operand resolves a condition term to its frame slot, or to slot -1
// and its constant's cell; ok=false means a string constant no fact
// stores.
func operand(d *db.Dict, t Term, slotOf map[string]int) (slot int, c db.Cell, ok bool) {
	if !t.IsConst {
		return slotOf[t.Var], db.Cell{}, true
	}
	c, ok = d.CellOf(t.Const)
	return -1, c, ok
}

// shapeKey renders q injectively for the plan cache: plans depend on
// every structural detail (head order, atom order, argument terms,
// conditions), so two queries share a plan only if they are identical.
// Names and payloads are length-prefixed to avoid boundary ambiguity.
func shapeKey(q CQ) string {
	var b strings.Builder
	for _, h := range q.Head {
		writeLenPrefixed(&b, h)
	}
	b.WriteByte('|')
	for _, a := range q.Atoms {
		writeLenPrefixed(&b, strings.ToLower(a.Rel))
		b.WriteByte('(')
		for _, t := range a.Args {
			writeTermKey(&b, t)
		}
		b.WriteByte(')')
	}
	b.WriteByte('|')
	for _, c := range q.Conds {
		writeTermKey(&b, c.Left)
		b.WriteByte(byte('0' + c.Op))
		writeTermKey(&b, c.Right)
	}
	return b.String()
}

func writeLenPrefixed(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

func writeTermKey(b *strings.Builder, t Term) {
	if t.IsConst {
		b.WriteByte('#')
		b.WriteByte(byte('0' + t.Const.Kind()))
		writeLenPrefixed(b, t.Const.String())
	} else {
		b.WriteByte('$')
		writeLenPrefixed(b, t.Var)
	}
}

// program returns (compiling and caching on demand) the compiled plan
// for q, and panics on an invalid query.
func (e *Evaluator) program(q CQ) *program {
	k := shapeKey(q)
	e.planMu.RLock()
	p := e.plans[k]
	e.planMu.RUnlock()
	if p != nil {
		return p
	}
	if err := q.Validate(e.in.Schema()); err != nil {
		panic("cq: evaluating an invalid query: " + err.Error())
	}
	p = compileCQ(e.in, q)
	e.planMu.Lock()
	if prev, ok := e.plans[k]; ok {
		p = prev // lost a compile race; keep the canonical one
	} else {
		e.plans[k] = p
	}
	e.planMu.Unlock()
	return p
}

const (
	// parallelEvalThreshold is the minimum number of first-step
	// candidates before a run fans out across workers; below it the
	// goroutine setup costs more than the scan.
	parallelEvalThreshold = 256
	// evalCancelStride is how many candidates, counted at every step,
	// are processed between ctx polls.
	evalCancelStride = 256
	// maxSlab caps the slabs answers, fact sets and group keys are
	// carved from; slabs start small and double up to it.
	maxSlab = 4096
)

// foldSpec tells a run how to record an assignment: its group is the
// first arity head values, and, when safe is non-nil, an assignment
// whose facts all pass safe is folded into its group instead of
// entering the bag.
type foldSpec struct {
	safe  func(db.FactID) bool
	arity int
}

// runProgram executes a compiled program into b, fanning the first
// atom's candidate list across e.par workers when it is large enough.
// Chunks are merged into b by index, so the parallel groups, folds and
// witnesses equal the sequential ones.
func (e *Evaluator) runProgram(ctx context.Context, p *program, b *bag, fs foldSpec) error {
	if p.empty {
		return nil
	}
	r := newProgRun(e, p, fs)
	r.out = b
	if len(p.steps) == 0 {
		// A query with no atoms has exactly one (empty) witnessing
		// assignment.
		r.emit()
		return nil
	}
	// Step 0 has no prior bindings: its probe cells are all constants.
	cands := r.candidates(0)
	if e.par <= 1 || len(cands) < parallelEvalThreshold {
		return r.runChunk(ctx, cands)
	}
	return e.runParallel(ctx, p, b, fs, cands)
}

func (e *Evaluator) runParallel(ctx context.Context, p *program, b *bag, fs foldSpec, cands []db.FactID) error {
	workers := e.par
	// Oversplit so one skewed chunk doesn't serialize the tail; the
	// per-chunk bags make the merge deterministic.
	chunks := workers * 4
	if chunks > len(cands) {
		chunks = len(cands)
	}
	if workers > chunks {
		workers = chunks
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]bag, chunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newProgRun(e, p, fs)
			for {
				ci := int(next.Add(1)) - 1
				if ci >= chunks || cctx.Err() != nil {
					return
				}
				lo := ci * len(cands) / chunks
				hi := (ci + 1) * len(cands) / chunks
				r.out = &results[ci]
				// runChunk only fails when cctx fired; nothing to record.
				if err := r.runChunk(cctx, cands[lo:hi]); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 0
	for ci := range results {
		n += len(results[ci].ws)
	}
	b.reserve(n)
	for ci := range results {
		b.merge(e.in.Dict(), &results[ci], fs.arity)
	}
	return nil
}

// progRun is the per-goroutine execution state of one program: the slot
// frame, the fact stack, per-step probe scratch (per step, not shared,
// because deeper recursion levels probe concurrently with an outer
// level's candidate loop), the steps' partitions, fetched once, and the
// cancellation countdown.
type progRun struct {
	e      *Evaluator
	d      *db.Dict
	p      *program
	frame  []db.Cell
	facts  []db.FactID
	probes [][]db.Cell
	parts  []*db.Partition
	out    *bag

	// Every candidate, at any step, decrements countdown; at zero the
	// run polls ctx, and err stops it at every depth.
	ctx       context.Context
	countdown int
	err       error

	fold foldSpec
	// Scratch of one emitted assignment: its head cells and its sorted,
	// deduplicated fact set.
	head []db.Cell
	set  []db.FactID

	// Slabs a new witness's answer and fact set are carved from.
	vals []db.Value
	ids  []db.FactID
}

func newProgRun(e *Evaluator, p *program, fs foldSpec) *progRun {
	r := &progRun{
		e:      e,
		d:      e.in.Dict(),
		p:      p,
		frame:  make([]db.Cell, p.numSlots),
		facts:  make([]db.FactID, 0, len(p.steps)),
		probes: make([][]db.Cell, len(p.steps)),
		parts:  make([]*db.Partition, len(p.steps)),
		fold:   fs,
		head:   make([]db.Cell, len(p.headSlots)),
		set:    make([]db.FactID, 0, len(p.steps)),
	}
	for i := range p.steps {
		r.probes[i] = make([]db.Cell, len(p.steps[i].lookupPos))
	}
	return r
}

// runChunk drives step 0 over a slice of its candidates.
func (r *progRun) runChunk(ctx context.Context, cands []db.FactID) error {
	r.ctx, r.countdown, r.err = ctx, evalCancelStride, ctx.Err()
	for _, id := range cands {
		if r.err != nil {
			break
		}
		r.candidate(&r.p.steps[0], 0, id)
	}
	return r.err
}

// candidates fills the step's probe scratch with its probe cells
// (constants, or slots bound by earlier steps) and returns the facts
// that match them: a partition group, or the whole relation when the
// step probes nothing.
func (r *progRun) candidates(step int) []db.FactID {
	st := &r.p.steps[step]
	if len(st.lookupPos) == 0 {
		return r.e.in.RelFactsByID(st.rel)
	}
	probe := r.probes[step]
	for i, s := range st.lookupSlot {
		probe[i] = st.lookupConst[i]
		if s >= 0 {
			probe[i] = r.frame[s]
		}
	}
	if r.parts[step] == nil {
		r.parts[step] = r.e.in.Partition(st.rel, st.lookupPos)
	}
	return r.parts[step].Lookup(probe)
}

// run matches steps 1..n recursively (step 0's candidates come from
// runChunk).
func (r *progRun) run(step int) {
	if step == len(r.p.steps) {
		r.emit()
		return
	}
	st := &r.p.steps[step]
	for _, id := range r.candidates(step) {
		if r.err != nil {
			return
		}
		r.candidate(st, step, id)
	}
}

// candidate runs one fact through a step's bindings, repeated-variable
// checks, and conditions, recursing deeper on success. The fact already
// matches the step's probe: partition groups are exact.
func (r *progRun) candidate(st *pstep, step int, id db.FactID) {
	if r.countdown--; r.countdown == 0 {
		r.countdown = evalCancelStride
		if r.err = r.ctx.Err(); r.err != nil {
			return
		}
	}
	row := r.e.in.Row(id)
	for _, b := range st.binds {
		r.frame[b.slot] = row.Cell(b.pos)
	}
	for _, c := range st.checks {
		if !r.d.EqualCells(r.frame[c.slot], row.Cell(c.pos)) {
			return
		}
	}
	for _, cond := range st.conds {
		if !cond(r.frame) {
			return
		}
	}
	r.facts = append(r.facts, id)
	r.run(step + 1)
	r.facts = r.facts[:len(r.facts)-1]
}

// emit records the current assignment: folded into its group when the
// run folds and every fact is safe, else added to the bag as its fact
// set (sorted, deduplicated) and head. A repeat only bumps the
// witness's multiplicity; a new witness's answer and fact set are
// carved from the slabs.
func (r *progRun) emit() {
	for i, s := range r.p.headSlots {
		r.head[i] = r.frame[s]
	}
	arity := r.fold.arity
	if r.fold.safe != nil && r.allSafe() {
		f := &r.out.groups[r.out.groupAt(r.d, r.head[:arity], nil)].Fold
		f.Rows++
		if len(r.head) > arity {
			f.addValue(r.d.CellValue(r.head[arity]))
		}
		return
	}
	set := append(r.set[:0], r.facts...)
	// Insertion sort: fact stacks are at most a handful of atoms deep.
	for i := 1; i < len(set); i++ {
		for j := i; j > 0 && set[j] < set[j-1]; j-- {
			set[j], set[j-1] = set[j-1], set[j]
		}
	}
	dedup := set[:0]
	for i, f := range set {
		if i == 0 || f != set[i-1] {
			dedup = append(dedup, f)
		}
	}
	r.set = set
	i, isNew := r.out.add(r.d, dedup, r.head, arity)
	w := &r.out.ws[i]
	w.Mult++
	if !isNew {
		return
	}
	w.Answer = decode(r.d, &r.vals, r.head)
	if len(dedup) > 0 {
		w.Facts = carve(&r.ids, len(dedup))
		copy(w.Facts, dedup)
	}
}

// carve returns n elements of the slab, capped at their own length so
// that appending to one carved slice never writes into the next; a full
// slab is replaced by a new one, twice as large up to maxSlab.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if len(s)+n > cap(s) {
		s = make([]T, 0, max(min(2*cap(s), maxSlab), 64, n))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// decode returns the values of cells, carved from the slab (an empty
// tuple for no cells).
func decode(d *db.Dict, slab *[]db.Value, cells []db.Cell) db.Tuple {
	if len(cells) == 0 {
		return db.Tuple{}
	}
	t := carve(slab, len(cells))
	for i, c := range cells {
		t[i] = d.CellValue(c)
	}
	return t
}

func (r *progRun) allSafe() bool {
	for _, f := range r.facts {
		if !r.fold.safe(f) {
			return false
		}
	}
	return true
}
