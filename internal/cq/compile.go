package cq

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"aggcavsat/internal/db"
)

// Compiled query plans. A CQ is compiled once per shape into a program:
// variables are resolved to integer slots of a flat []db.Value frame
// (no per-recursion map allocations), conditions become closures over
// slots, and index probes fold uint64 composite keys (FNV over value
// kind+payload) instead of materializing Tuple.Key strings. The plan —
// atom order and condition attachment — is planCQ's, and candidates are
// visited in insertion order, so the row order is deterministic; the
// row bag is checked against a brute-force reference evaluator by the
// property tests in compile_test.go.
//
// Semantics note: a position whose variable is bound by an earlier
// atom in plan order (or a constant) is an index probe and
// matches with Tuple.Key equality, i.e. kind-exact (Int(1) does not
// probe-match Float(1)); a variable repeated within one atom is checked
// with Value.Equal (Compare-based, so Int(1) matches Float(1)). The
// hash index is not injective, so every probe hit is re-verified with
// EqualExact before use.

// program is a compiled CQ.
type program struct {
	numSlots  int
	headSlots []int
	steps     []pstep
}

// slotPos pairs a tuple position with a frame slot.
type slotPos struct{ pos, slot int }

// pstep matches one atom, in plan order.
type pstep struct {
	rel string

	// Index probe over the positions bound by constants or earlier
	// steps. Empty lookupPos means a full scan of the relation.
	lookupPos   []int
	lookupSlot  []int      // slot supplying position i's probe value; -1 = constant
	lookupConst []db.Value // probe constant where lookupSlot[i] == -1
	mask        uint64     // index mask over lookupPos

	binds  []slotPos // free positions: tuple[pos] binds frame[slot]
	checks []slotPos // within-atom repeated vars: tuple[pos] must Equal frame[slot]
	conds  []func(frame []db.Value) bool
}

// compileCQ lowers q onto planCQ's atom order. The caller has validated q.
func compileCQ(in *db.Instance, q CQ) *program {
	pl := planCQ(in, q)
	prog := &program{steps: make([]pstep, 0, len(pl.order))}
	slotOf := make(map[string]int)
	boundBefore := make(map[string]bool)
	for step, ai := range pl.order {
		atom := q.Atoms[ai]
		st := pstep{rel: strings.ToLower(atom.Rel)}
		for i, t := range atom.Args {
			switch {
			case t.IsConst:
				st.lookupPos = append(st.lookupPos, i)
				st.lookupSlot = append(st.lookupSlot, -1)
				st.lookupConst = append(st.lookupConst, t.Const)
			case boundBefore[t.Var]:
				st.lookupPos = append(st.lookupPos, i)
				st.lookupSlot = append(st.lookupSlot, slotOf[t.Var])
				st.lookupConst = append(st.lookupConst, db.Value{})
			default:
				if s, ok := slotOf[t.Var]; ok {
					// Repeated within this atom: the first occurrence
					// binds the slot, later ones Equal-check it.
					st.checks = append(st.checks, slotPos{pos: i, slot: s})
				} else {
					s = prog.numSlots
					prog.numSlots++
					slotOf[t.Var] = s
					st.binds = append(st.binds, slotPos{pos: i, slot: s})
				}
			}
		}
		for _, p := range st.lookupPos {
			st.mask |= 1 << uint(p)
		}
		for _, ci := range pl.condsAfter[step] {
			st.conds = append(st.conds, compileCond(q.Conds[ci], slotOf))
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

// compileCond closes a condition over frame slots, hoisting constants
// (and constant-constant comparisons) out of the per-row path.
func compileCond(c Condition, slotOf map[string]int) func([]db.Value) bool {
	op := c.Op
	switch {
	case c.Left.IsConst && c.Right.IsConst:
		res := op.Apply(c.Left.Const, c.Right.Const)
		return func([]db.Value) bool { return res }
	case c.Left.IsConst:
		lv, rs := c.Left.Const, slotOf[c.Right.Var]
		return func(f []db.Value) bool { return op.Apply(lv, f[rs]) }
	case c.Right.IsConst:
		ls, rv := slotOf[c.Left.Var], c.Right.Const
		return func(f []db.Value) bool { return op.Apply(f[ls], rv) }
	default:
		ls, rs := slotOf[c.Left.Var], slotOf[c.Right.Var]
		return func(f []db.Value) bool { return op.Apply(f[ls], f[rs]) }
	}
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

// hashIndex returns (building on demand) the uint64-keyed index of rel
// on the given positions. mask is the caller's precomputed position
// mask (avoids recomputing it per probe).
func (e *Evaluator) hashIndex(rel string, positions []int, mask uint64) *hashIndex {
	key := indexKey{rel: rel, mask: mask}
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
	idx = buildHashIndex(e.in, rel, positions)
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

func buildHashIndex(in *db.Instance, rel string, positions []int) *hashIndex {
	ids := in.RelFacts(rel)
	x := &hashIndex{shift: 64}
	for 1<<(64-x.shift) < 2*len(ids) {
		x.shift--
	}
	x.slots = make([]idxSlot, 1<<(64-x.shift))
	// Columnar instances hash dictionary codes here; the probe side uses
	// HashProbeValue so both sides of the index agree.
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
	if len(p.steps) == 0 {
		// A query with no atoms has exactly one (empty) witnessing
		// assignment.
		r := newProgRun(e, p, fs)
		r.emit()
		return r.out, nil
	}
	st0 := &p.steps[0]
	probe0 := make([]db.Value, len(st0.lookupPos))
	var cands []db.FactID
	if len(st0.lookupPos) > 0 {
		// Step 0 has no prior bindings: every probe value is a constant.
		h, ok := db.HashSeed, true
		for i, v := range st0.lookupConst {
			probe0[i] = v
			if h, ok = e.in.HashProbeValue(h, v); !ok {
				break // string absent from the dictionary: no fact matches
			}
		}
		if ok {
			cands = e.hashIndex(st0.rel, st0.lookupPos, st0.mask).lookup(h)
		}
	} else {
		cands = e.in.RelFacts(st0.rel)
	}
	if e.par <= 1 || len(cands) < parallelEvalThreshold {
		r := newProgRun(e, p, fs)
		if err := r.runChunk(ctx, st0, cands, probe0); err != nil {
			return runResult{}, err
		}
		return r.out, nil
	}
	return e.runParallel(ctx, p, fs, st0, cands, probe0)
}

func (e *Evaluator) runParallel(ctx context.Context, p *program, fs *foldSpec, st0 *pstep, cands []db.FactID, probe0 []db.Value) (runResult, error) {
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
				if err := r.runChunk(cctx, st0, cands[lo:hi], probe0); err != nil {
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
	return mergeResults(results), nil
}

// mergeResults concatenates results in order: rows appended, folds of
// one group summed.
func mergeResults(results []runResult) runResult {
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
		for _, gf := range res.folds.list {
			out.folds.at(gf.Key).merge(gf.Fold)
		}
	}
	return out
}

// progRun is the per-goroutine execution state of one program: the slot
// frame, the fact stack, and per-step probe scratch (per step, not
// shared, because deeper recursion levels probe concurrently with an
// outer level's candidate loop).
type progRun struct {
	e      *Evaluator
	p      *program
	frame  []db.Value
	facts  []db.FactID
	probes [][]db.Value
	out    runResult

	fold *foldSpec
	key  db.Tuple // group-key scratch of a folded assignment

	// Slabs the emitted heads and fact sets are carved from; a carved
	// slice is capped at its own length, so appending to one row's
	// slice never writes into the next row's.
	vals []db.Value
	ids  []db.FactID
}

func newProgRun(e *Evaluator, p *program, fs *foldSpec) *progRun {
	r := &progRun{
		e:      e,
		p:      p,
		frame:  make([]db.Value, p.numSlots),
		facts:  make([]db.FactID, 0, len(p.steps)),
		probes: make([][]db.Value, len(p.steps)),
		fold:   fs,
	}
	for i := range p.steps {
		r.probes[i] = make([]db.Value, len(p.steps[i].lookupPos))
	}
	if fs != nil {
		r.key = make(db.Tuple, fs.arity)
	}
	return r
}

// runChunk drives step 0 over a slice of its candidates, polling ctx
// every evalCancelStride candidates.
func (r *progRun) runChunk(ctx context.Context, st0 *pstep, cands []db.FactID, probe0 []db.Value) error {
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

// run matches steps 1..n recursively (step 0's candidates come from
// runChunk).
func (r *progRun) run(step int) {
	if step == len(r.p.steps) {
		r.emit()
		return
	}
	st := &r.p.steps[step]
	var cands []db.FactID
	probe := r.probes[step]
	if len(st.lookupPos) > 0 {
		h, ok := db.HashSeed, true
		for i, s := range st.lookupSlot {
			v := st.lookupConst[i]
			if s >= 0 {
				v = r.frame[s]
			}
			probe[i] = v
			if h, ok = r.e.in.HashProbeValue(h, v); !ok {
				break // string absent from the dictionary: no fact matches
			}
		}
		if ok {
			cands = r.e.hashIndex(st.rel, st.lookupPos, st.mask).lookup(h)
		}
	} else {
		cands = r.e.in.RelFacts(st.rel)
	}
	for _, id := range cands {
		r.candidate(st, step, id, probe)
	}
}

// candidate runs one fact through a step's probe verification,
// bindings, repeated-variable checks, and conditions, recursing deeper
// on success.
func (r *progRun) candidate(st *pstep, step int, id db.FactID, probe []db.Value) {
	row := r.e.in.Row(id)
	// Re-verify the probe columns exactly: hash buckets may collide.
	for i, p := range st.lookupPos {
		if !row.Match(p, probe[i]) {
			return
		}
	}
	for _, b := range st.binds {
		r.frame[b.slot] = row.Value(b.pos)
	}
	for _, c := range st.checks {
		if !r.frame[c.slot].Equal(row.Value(c.pos)) {
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
			head[i] = r.frame[s]
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
	f := r.out.folds.at(r.key)
	f.Rows++
	if len(r.p.headSlots) > len(r.key) {
		f.addValue(r.frame[r.p.headSlots[len(r.key)]])
	}
}
