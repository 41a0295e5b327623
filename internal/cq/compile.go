package cq

import (
	"context"
	"encoding/binary"
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
//   - Index probes are []db.Cell. Their hash folds cells (db.HashCell,
//     the hash the index was built with), and a hit is re-verified by
//     cell equality, a word compare, since the hash is not injective.
//     Atom constants are encoded once, at compile time; a string no fact
//     stores makes the whole program empty.
//   - Conditions are kernels over cells with Value.Compare semantics
//     (db.Dict.CompareCells): = and != compare string codes, and
//     ordered string comparisons compare ranks (db.Ranks), a constant
//     no fact stores ranking between its neighbours. LIKE-prefix
//     decodes the cells and uses CmpOp.Apply.
//   - db.Values are built only where rows leave the evaluator: emitted
//     heads and fold keys and values.
//
// The plan — atom order and condition attachment — is planCQ's, and
// candidates are visited in insertion order, so the row order is
// deterministic; the row bag is checked against a brute-force reference
// evaluator by the property tests in compile_test.go and
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
	index       indexKey  // the hash index over lookupPos

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
		st.index = newIndexKey(rel, st.lookupPos)
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
		panic("cq: Eval on invalid query: " + err.Error())
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

// indexKey names a hash index: a relation and the exact list of its
// positions the index is built on.
type indexKey struct {
	rel db.RelID
	pos string // the positions, uvarint-encoded back to back
}

func newIndexKey(rel db.RelID, positions []int) indexKey {
	var b []byte
	for _, p := range positions {
		b = binary.AppendUvarint(b, uint64(p))
	}
	return indexKey{rel: rel, pos: string(b)}
}

// hashIndex returns (building on demand) the index of key.rel on the
// given positions, which key encodes.
func (e *Evaluator) hashIndex(key indexKey, positions []int) *hashIndex {
	e.mu.RLock()
	idx, ok := e.hashIdx[key]
	e.mu.RUnlock()
	if ok {
		return idx
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if idx, ok := e.hashIdx[key]; ok {
		return idx
	}
	idx = buildHashIndex(e.in, key.rel, positions)
	e.hashIdx[key] = idx
	return idx
}

// hashIndex is a pointer-free index of one relation on a set of
// positions: open-addressing slots keyed by the positions' 64-bit hash,
// each naming a run of one shared fact array. Facts keep their
// relation order inside a run. A table of flat words costs the garbage
// collector nothing to scan, unlike a map of per-key slices.
type hashIndex struct {
	slots []idxSlot // power-of-two length, linear probing; n == 0 is empty
	shift uint      // 64 − log2(len(slots))
	facts []db.FactID
}

type idxSlot struct {
	h     uint64
	lo, n uint32 // the run facts[lo : lo+n]
}

func buildHashIndex(in *db.Instance, rel db.RelID, positions []int) *hashIndex {
	ids := in.RelFactsByID(rel)
	x := &hashIndex{shift: 64}
	for 1<<(64-x.shift) < 2*len(ids) {
		x.shift--
	}
	x.slots = make([]idxSlot, 1<<(64-x.shift))
	// HashRowOn folds each position's cell (db.HashCell), as the probe
	// side does, so both sides of the index agree.
	hs := make([]uint64, len(ids))
	for i, id := range ids {
		hs[i] = in.HashRowOn(id, positions, db.HashSeed)
		s := &x.slots[x.find(hs[i])]
		s.h = hs[i]
		s.n++
	}
	// Each run's lo starts at its end and counts down as the facts are
	// placed back to front, which keeps relation order within a run.
	var end uint32
	for i := range x.slots {
		end += x.slots[i].n
		x.slots[i].lo = end
	}
	x.facts = make([]db.FactID, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		s := &x.slots[x.find(hs[i])]
		s.lo--
		x.facts[s.lo] = ids[i]
	}
	return x
}

// find returns the slot holding h, or the empty slot where h belongs.
func (x *hashIndex) find(h uint64) int {
	mask := len(x.slots) - 1
	i := int((h * 0x9e3779b97f4a7c15) >> x.shift & uint64(mask))
	for x.slots[i].n != 0 && x.slots[i].h != h {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns the facts whose indexed positions hash to h (capped,
// so an append by the caller cannot write into the next run).
func (x *hashIndex) lookup(h uint64) []db.FactID {
	s := x.slots[x.find(h)]
	return x.facts[s.lo : s.lo+s.n : s.lo+s.n]
}

const (
	// parallelEvalThreshold is the minimum number of first-step
	// candidates before EvalCtx fans out across workers; below it the
	// goroutine setup costs more than the scan.
	parallelEvalThreshold = 256
	// evalCancelStride is how many first-step candidates are processed
	// between ctx polls.
	evalCancelStride = 256
	// maxSlab caps the row slabs progRun carves heads and fact sets from;
	// slabs start small and double up to it.
	maxSlab = 4096
)

// foldSpec asks a run to fold, instead of emit, every assignment whose
// facts all pass safe: such assignments are aggregated per group (the
// first arity head values) into a Fold.
type foldSpec struct {
	safe  func(db.FactID) bool
	arity int
}

// runResult is what a run, or one chunk of it, produced: the emitted
// rows and the folds, each in enumeration order.
type runResult struct {
	rows  []Row
	folds foldSet
}

// runProgram executes a compiled program, fanning the first atom's
// candidate list across e.par workers when it is large enough. Chunks
// are merged by index, so the parallel row and fold order equals the
// sequential order. fs, when non-nil, folds the all-safe assignments.
func (e *Evaluator) runProgram(ctx context.Context, p *program, fs *foldSpec) (runResult, error) {
	if p.empty {
		return runResult{}, nil
	}
	r := newProgRun(e, p, fs)
	if len(p.steps) == 0 {
		// A query with no atoms has exactly one (empty) witnessing
		// assignment.
		r.emit()
		return r.out, nil
	}
	// Step 0 has no prior bindings: its probe cells are all constants.
	cands := r.candidates(0)
	if e.par <= 1 || len(cands) < parallelEvalThreshold {
		if err := r.runChunk(ctx, cands, r.probes[0]); err != nil {
			return runResult{}, err
		}
		return r.out, nil
	}
	return e.runParallel(ctx, p, fs, cands, r.probes[0])
}

func (e *Evaluator) runParallel(ctx context.Context, p *program, fs *foldSpec, cands []db.FactID, probe0 []db.Cell) (runResult, error) {
	workers := e.par
	// Oversplit so one skewed chunk doesn't serialize the tail; the
	// per-chunk result slots make the merge deterministic.
	chunks := workers * 4
	if chunks > len(cands) {
		chunks = len(cands)
	}
	if workers > chunks {
		workers = chunks
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]runResult, chunks)
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
				r.out = runResult{}
				// runChunk only fails when cctx fired; nothing to record.
				if err := r.runChunk(cctx, cands[lo:hi], probe0); err != nil {
					return
				}
				results[ci] = r.out
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return runResult{}, err
	}
	return mergeResults(e.in.Dict(), results), nil
}

// mergeResults concatenates results in order: rows appended, folds of
// one group summed.
func mergeResults(d *db.Dict, results []runResult) runResult {
	if len(results) == 1 {
		return results[0]
	}
	total := 0
	for _, res := range results {
		total += len(res.rows)
	}
	out := runResult{rows: make([]Row, 0, total)}
	for _, res := range results {
		out.rows = append(out.rows, res.rows...)
		for i, gf := range res.folds.list {
			n := len(gf.Key)
			out.folds.atCells(d, res.folds.cells[i*n:(i+1)*n]).merge(gf.Fold)
		}
	}
	return out
}

// progRun is the per-goroutine execution state of one program: the slot
// frame, the fact stack, per-step probe scratch (per step, not shared,
// because deeper recursion levels probe concurrently with an outer
// level's candidate loop) and the steps' hash indexes, fetched once.
type progRun struct {
	e      *Evaluator
	d      *db.Dict
	p      *program
	frame  []db.Cell
	facts  []db.FactID
	probes [][]db.Cell
	idx    []*hashIndex
	out    runResult

	fold *foldSpec
	key  []db.Cell // group-key scratch of a folded assignment

	// Slabs the emitted heads and fact sets are carved from; a carved
	// slice is capped at its own length, so appending to one row's
	// slice never writes into the next row's.
	vals []db.Value
	ids  []db.FactID
}

func newProgRun(e *Evaluator, p *program, fs *foldSpec) *progRun {
	r := &progRun{
		e:      e,
		d:      e.in.Dict(),
		p:      p,
		frame:  make([]db.Cell, p.numSlots),
		facts:  make([]db.FactID, 0, len(p.steps)),
		probes: make([][]db.Cell, len(p.steps)),
		idx:    make([]*hashIndex, len(p.steps)),
		fold:   fs,
	}
	for i := range p.steps {
		r.probes[i] = make([]db.Cell, len(p.steps[i].lookupPos))
	}
	if fs != nil {
		r.key = make([]db.Cell, fs.arity)
	}
	return r
}

// runChunk drives step 0 over a slice of its candidates, polling ctx
// every evalCancelStride candidates.
func (r *progRun) runChunk(ctx context.Context, cands []db.FactID, probe0 []db.Cell) error {
	st0 := &r.p.steps[0]
	for i, id := range cands {
		if i%evalCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		r.candidate(st0, 0, id, probe0)
	}
	return nil
}

// candidates fills the step's probe scratch with its probe cells
// (constants, or slots bound by earlier steps) and returns the facts
// that may match them: an index hit list, or the whole relation when
// the step probes nothing.
func (r *progRun) candidates(step int) []db.FactID {
	st := &r.p.steps[step]
	if len(st.lookupPos) == 0 {
		return r.e.in.RelFactsByID(st.rel)
	}
	probe := r.probes[step]
	h := db.HashSeed
	for i, s := range st.lookupSlot {
		c := st.lookupConst[i]
		if s >= 0 {
			c = r.frame[s]
		}
		probe[i] = c
		h = db.HashCell(h, c)
	}
	x := r.idx[step]
	if x == nil {
		x = r.e.hashIndex(st.index, st.lookupPos)
		r.idx[step] = x
	}
	return x.lookup(h)
}

// run matches steps 1..n recursively (step 0's candidates come from
// runChunk).
func (r *progRun) run(step int) {
	if step == len(r.p.steps) {
		r.emit()
		return
	}
	st := &r.p.steps[step]
	probe := r.probes[step]
	for _, id := range r.candidates(step) {
		r.candidate(st, step, id, probe)
	}
}

// candidate runs one fact through a step's probe verification,
// bindings, repeated-variable checks, and conditions, recursing deeper
// on success.
func (r *progRun) candidate(st *pstep, step int, id db.FactID, probe []db.Cell) {
	row := r.e.in.Row(id)
	// Re-verify the probe columns exactly: hash buckets may collide.
	for i, p := range st.lookupPos {
		if row.Cell(p) != probe[i] {
			return
		}
	}
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

// emit records the current assignment: folded into its group when every
// fact is safe under the run's foldSpec, else materialized as a Row
// with the fact set sorted and deduplicated.
func (r *progRun) emit() {
	if r.fold != nil && r.allSafe() {
		r.foldAssignment()
		return
	}
	head := db.Tuple{}
	if nh := len(r.p.headSlots); nh > 0 {
		if len(r.vals)+nh > cap(r.vals) {
			r.vals = make([]db.Value, 0, slabSize(cap(r.vals), nh))
		}
		head = r.vals[len(r.vals) : len(r.vals)+nh : len(r.vals)+nh]
		r.vals = r.vals[:len(r.vals)+nh]
		for i, s := range r.p.headSlots {
			head[i] = r.d.CellValue(r.frame[s])
		}
	}
	var facts []db.FactID
	if nf := len(r.facts); nf > 0 {
		if len(r.ids)+nf > cap(r.ids) {
			r.ids = make([]db.FactID, 0, slabSize(cap(r.ids), nf))
		}
		facts = r.ids[len(r.ids) : len(r.ids)+nf : len(r.ids)+nf]
		r.ids = r.ids[:len(r.ids)+nf]
		copy(facts, r.facts)
	}
	// Insertion sort: fact stacks are at most a handful of atoms deep.
	for i := 1; i < len(facts); i++ {
		for j := i; j > 0 && facts[j] < facts[j-1]; j-- {
			facts[j], facts[j-1] = facts[j-1], facts[j]
		}
	}
	dedup := facts[:0]
	for i, f := range facts {
		if i == 0 || f != facts[i-1] {
			dedup = append(dedup, f)
		}
	}
	r.out.rows = append(r.out.rows, Row{Head: head, Facts: dedup})
}

// slabSize is the capacity of the slab following one of capacity prev
// that must hold at least need elements.
func slabSize(prev, need int) int {
	return max(min(2*prev, maxSlab), 64, need)
}

func (r *progRun) allSafe() bool {
	for _, f := range r.facts {
		if !r.fold.safe(f) {
			return false
		}
	}
	return true
}

// foldAssignment adds the current (all-safe) assignment to its group's
// fold; the aggregated value, when the head has one, follows the group
// key.
func (r *progRun) foldAssignment() {
	for i := range r.key {
		r.key[i] = r.frame[r.p.headSlots[i]]
	}
	f := r.out.folds.atCells(r.d, r.key)
	f.Rows++
	if len(r.p.headSlots) > len(r.key) {
		f.addValue(r.d.CellValue(r.frame[r.p.headSlots[len(r.key)]]))
	}
}
