// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat lineage: two-watched-literal propagation, first-UIP
// conflict analysis with clause minimization, VSIDS branching, Luby
// restarts, phase saving, and activity/LBD-based learnt-clause deletion.
//
// The solver supports incremental solving under assumptions and extracts
// an unsatisfiable core over the assumptions on UNSAT — the interface the
// core-guided MaxSAT algorithm of internal/maxsat is built on. It plays
// the role MaxHS's internal SAT engine plays in the paper.
package sat

import (
	"sort"
	"sync/atomic"

	"aggcavsat/internal/cnf"
)

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means solving was aborted (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the assumptions) is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Internal literal encoding: variable v (0-based) appears positively as
// 2v and negatively as 2v+1.
type lit uint32

const litUndef lit = ^lit(0)

func mkLit(v int, neg bool) lit {
	l := lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

func fromCNF(l cnf.Lit) lit { return mkLit(l.Var()-1, !l.Positive()) }
func (l lit) toCNF() cnf.Lit {
	v := cnf.Lit(l.v() + 1)
	if l.sign() {
		return -v
	}
	return v
}

func (l lit) v() int     { return int(l >> 1) }
func (l lit) sign() bool { return l&1 != 0 } // true = negated
func (l lit) neg() lit   { return l ^ 1 }

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToL(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// clause storage: clause headers live in a flat slice addressed by
// index, and every clause's literals live in one shared arena on the
// Solver — a clause records its [off, off+n) window. One allocation
// backs the whole literal store instead of one slice per clause.
type clause struct {
	off      int32
	n        int32
	activity float64
	lbd      int32
	learnt   bool
	removed  bool
}

type watcher struct {
	cref    int // clause index
	blocker lit
}

// Statistics counts solver work; exposed for the paper's "number of SAT
// calls" plots and for tests.
type Statistics struct {
	Solves       int64
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnt       int64
	Restarts     int64
}

// Progress is a point-in-time snapshot of search state, delivered to the
// callback registered with SetProgress — the raw material of
// MiniSat-style periodic progress lines.
type Progress struct {
	Statistics
	// TrailDepth is the number of currently assigned literals.
	TrailDepth int
	// Vars and Clauses describe the current clause database (including
	// learnt clauses).
	Vars, Clauses int
	// LearntLive is the number of learnt clauses currently retained.
	LearntLive int
}

// ProgressFunc receives periodic search progress. It is called from
// inside the search loop: keep it fast and do not call back into the
// solver.
type ProgressFunc func(Progress)

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []clause
	arena   []lit       // flat literal store backing all clauses
	watches [][]watcher // indexed by lit

	assigns  []lbool // indexed by var
	level    []int32
	reason   []int32 // clause index or -1
	phase    []bool  // saved phase
	trail    []lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	heap     varHeap

	seen      []bool
	analyzeTS []lit // scratch

	okay bool // false once a top-level conflict is derived

	assumptions []lit
	conflictSet []lit // final core over assumptions (negated assumption lits)

	model []bool

	claInc      float64
	learntCount int
	maxLearnts  float64

	originalClauses int // problem (non-learnt) clauses, incl. units

	lubyIndex int64

	lbdSeen  []uint64
	lbdStamp uint64

	budgetEnd int64 // Stats.Conflicts at which the budget runs out; 0 means unlimited

	stop atomic.Bool // cooperative interrupt, set from other goroutines

	progressEvery int64
	progressNext  int64
	progressFn    ProgressFunc

	Stats Statistics
}

// New creates an empty solver. The learnt-clause cap starts at 8000
// and is re-floored to originalClauses/3 at each Solve (see Solve), so
// large instances keep proportionally more learnt clauses, MiniSat
// style.
func New() *Solver {
	return &Solver{
		okay:       true,
		varInc:     1.0,
		claInc:     1.0,
		maxLearnts: 8000,
	}
}

// SetConflictBudget bounds the conflicts of all later Solve calls
// together, counted from this call: once n more conflicts have been
// spent, Solve returns Unknown (checked at restarts and at the start of
// each call). Zero or negative means unlimited.
func (s *Solver) SetConflictBudget(n int64) {
	s.budgetEnd = 0
	if n > 0 {
		s.budgetEnd = s.Stats.Conflicts + n
	}
}

// budgetSpent reports whether the conflict budget has run out.
func (s *Solver) budgetSpent() bool {
	return s.budgetEnd > 0 && s.Stats.Conflicts >= s.budgetEnd
}

// Interrupt requests a cooperative stop: the current (or next) Solve
// call returns Unknown as soon as the search loop observes the flag.
// Safe to call from any goroutine; the flag is sticky, so an
// interrupted solver stays interrupted for all subsequent Solve calls.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (s *Solver) Interrupted() bool { return s.stop.Load() }

// SetProgress registers fn to be invoked every 'every' conflicts during
// search (and once per Solve start when a callback is set). A nil fn or
// every <= 0 disables reporting. The disabled-path cost inside the
// conflict loop is one nil check.
func (s *Solver) SetProgress(every int64, fn ProgressFunc) {
	if fn == nil || every <= 0 {
		s.progressFn = nil
		s.progressEvery = 0
		return
	}
	s.progressEvery = every
	s.progressFn = fn
	s.progressNext = s.Stats.Conflicts + every
}

// ProgressSnapshot captures the current search state (the same data the
// SetProgress callback receives).
func (s *Solver) ProgressSnapshot() Progress {
	return Progress{
		Statistics: s.Stats,
		TrailDepth: len(s.trail),
		Vars:       len(s.assigns),
		Clauses:    len(s.clauses),
		LearntLive: s.learntCount,
	}
}

// NumVars returns the number of variables known to the solver.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of clauses in the database (including
// learnt and logically removed ones).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable and returns its 1-based CNF index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(v, s.activity)
	return v + 1
}

// EnsureVars grows the variable set to at least n variables.
func (s *Solver) EnsureVars(n int) {
	for len(s.assigns) < n {
		s.NewVar()
	}
}

// Okay reports whether the clause set is still possibly satisfiable (it
// becomes false when a top-level conflict is found while adding clauses).
func (s *Solver) Okay() bool { return s.okay }

// AddClause adds a clause in CNF literal convention. It returns false if
// the solver is already in an unsatisfiable top-level state afterwards.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if !s.okay {
		return false
	}
	// Convert, grow vars, sort/dedup, detect tautology.
	tmp := make([]lit, 0, len(lits))
	for _, l := range lits {
		s.EnsureVars(l.Var())
		tmp = append(tmp, fromCNF(l))
	}
	// Insertion sort (clauses are short) + dedup + tautology check.
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	out := tmp[:0]
	for i, l := range tmp {
		if i > 0 && l == tmp[i-1] {
			continue
		}
		if i > 0 && l == tmp[i-1]^1 {
			return true // tautology: x ∨ ¬x
		}
		switch s.valueLit(l) {
		case lTrue:
			if s.level[l.v()] == 0 {
				return true // already satisfied at top level
			}
		case lFalse:
			if s.level[l.v()] == 0 {
				continue // drop top-level-false literal
			}
		}
		out = append(out, l)
	}
	// Note: AddClause must only be called at decision level 0.
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called during search")
	}
	switch len(out) {
	case 0:
		s.okay = false
		return false
	case 1:
		s.originalClauses++
		if !s.enqueue(out[0], -1) {
			s.okay = false
			return false
		}
		if s.propagate() != -1 {
			s.okay = false
			return false
		}
		return true
	}
	s.originalClauses++
	s.attach(out, false, 0)
	return true
}

// AddFormulaHard adds all hard clauses of f.
func (s *Solver) AddFormulaHard(f *cnf.Formula) bool {
	s.EnsureVars(f.NumVars())
	for _, c := range f.Clauses() {
		if c.Hard() {
			if !s.AddClause(c.Lits...) {
				return false
			}
		}
	}
	return s.okay
}

// litsOf returns the literal window of a clause. The slice aliases the
// arena with capacity clamped to the window, so the in-place swaps in
// propagate write through; it is only valid until the next attach.
func (s *Solver) litsOf(c *clause) []lit {
	return s.arena[c.off : c.off+c.n : c.off+c.n]
}

// attach copies lits into the arena, appends a clause header, and
// installs the two watches.
func (s *Solver) attach(lits []lit, learnt bool, lbd int) int {
	off := int32(len(s.arena))
	s.arena = append(s.arena, lits...)
	cref := len(s.clauses)
	s.clauses = append(s.clauses, clause{off: off, n: int32(len(lits)), learnt: learnt, lbd: int32(lbd)})
	s.watches[lits[0].neg()] = append(s.watches[lits[0].neg()], watcher{cref, lits[1]})
	s.watches[lits[1].neg()] = append(s.watches[lits[1].neg()], watcher{cref, lits[0]})
	if learnt {
		s.learntCount++
	}
	return cref
}

func (s *Solver) valueVar(v int) lbool { return s.assigns[v] }

func (s *Solver) valueLit(l lit) lbool {
	a := s.assigns[l.v()]
	if a == lUndef {
		return lUndef
	}
	if l.sign() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l lit, from int32) bool {
	switch s.valueLit(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.v()
	s.assigns[v] = boolToL(!l.sign())
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; it returns the index of a conflicting
// clause, or -1.
func (s *Solver) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker fast path.
			if s.valueLit(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := &s.clauses[w.cref]
			if c.removed {
				continue // lazily drop watchers of removed clauses
			}
			lits := s.litsOf(c)
			// Ensure the falsified literal is lits[1].
			if lits[0] == p.neg() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.valueLit(first) == lTrue {
				kept = append(kept, watcher{w.cref, first})
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.valueLit(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].neg()] = append(s.watches[lits[1].neg()], watcher{w.cref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.cref, first})
			if s.valueLit(first) == lFalse {
				// Conflict: restore remaining watchers and bail.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return w.cref
			}
			if !s.enqueue(first, int32(w.cref)) {
				panic("sat: enqueue of unit literal failed")
			}
		}
		s.watches[p] = kept
	}
	return -1
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.v()
		s.phase[v] = !l.sign()
		s.assigns[v] = lUndef
		s.reason[v] = -1
		if !s.heap.inHeap(v) {
			s.heap.insert(v, s.activity)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heap.inHeap(v) {
		s.heap.decrease(v, s.activity)
	}
}

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e20 {
		for i := range s.clauses {
			if s.clauses[i].learnt {
				s.clauses[i].activity *= 1e-20
			}
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis; it returns the learnt
// clause (out[0] is the asserting literal) and the backtrack level.
func (s *Solver) analyze(confl int) ([]lit, int) {
	learnt := s.analyzeTS[:0]
	learnt = append(learnt, litUndef) // placeholder for asserting literal
	counter := 0
	p := litUndef
	idx := len(s.trail) - 1
	var toClear []lit

	for {
		c := &s.clauses[confl]
		if c.learnt {
			s.bumpClause(c)
		}
		start := 0
		if p != litUndef {
			start = 1
		}
		for _, q := range s.litsOf(c)[start:] {
			v := q.v()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			toClear = append(toClear, q)
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].v()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = int(s.reason[p.v()])
		s.seen[p.v()] = false
		counter--
		if counter == 0 {
			break
		}
		if confl < 0 {
			panic("sat: analyze ran out of reasons")
		}
	}
	learnt[0] = p.neg()

	// Clause minimization: drop literals implied by the rest.
	j := 1
	for i := 1; i < len(learnt); i++ {
		if !s.redundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Compute backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].v()] > s.level[learnt[maxI].v()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].v()])
	}
	for _, q := range toClear {
		s.seen[q.v()] = false
	}
	s.analyzeTS = learnt[:0]
	out := make([]lit, len(learnt))
	copy(out, learnt)
	return out, btLevel
}

// redundant reports whether literal l of a learnt clause is implied by the
// other marked literals (simple non-recursive self-subsumption check).
func (s *Solver) redundant(l lit) bool {
	r := s.reason[l.v()]
	if r < 0 {
		return false
	}
	for _, q := range s.litsOf(&s.clauses[r]) {
		if q == l.neg() {
			continue
		}
		v := q.v()
		if s.level[v] != 0 && !s.seen[v] {
			return false
		}
	}
	return true
}

// lbd computes the literal-block distance of a clause using a stamp
// array (no per-call allocation).
func (s *Solver) lbd(lits []lit) int {
	s.lbdStamp++
	n := 0
	for _, l := range lits {
		lv := s.level[l.v()]
		if int(lv) >= len(s.lbdSeen) {
			s.lbdSeen = append(s.lbdSeen, make([]uint64, int(lv)+1-len(s.lbdSeen))...)
		}
		if s.lbdSeen[lv] != s.lbdStamp {
			s.lbdSeen[lv] = s.lbdStamp
			n++
		}
	}
	return n
}

// reduceDB removes roughly half of the learnt clauses, preferring high-LBD
// low-activity clauses; clauses currently used as reasons are kept.
func (s *Solver) reduceDB() {
	type cand struct {
		cref int
		act  float64
		lbd  int
	}
	var cands []cand
	locked := make(map[int]bool)
	for _, l := range s.trail {
		if r := s.reason[l.v()]; r >= 0 {
			locked[int(r)] = true
		}
	}
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.learnt && !c.removed && c.n > 2 && !locked[i] {
			cands = append(cands, cand{i, c.activity, int(c.lbd)})
		}
	}
	// Selection: remove the worse half by (lbd desc, activity asc).
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lbd != cands[j].lbd {
			return cands[i].lbd > cands[j].lbd
		}
		return cands[i].act < cands[j].act
	})
	for i := 0; i < len(cands)/2; i++ {
		s.clauses[cands[i].cref].removed = true
		s.learntCount--
	}
}

// luby returns the i-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
func luby(i int64) int64 {
	size, seq := int64(1), 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) >> 1
		seq--
		i %= size
	}
	return 1 << seq
}

// Solve searches for a model under the given assumptions. On Sat, Model
// returns the assignment; on Unsat, Core returns a subset of the
// assumptions that is jointly unsatisfiable with the clauses.
func (s *Solver) Solve(assumptions ...cnf.Lit) Status {
	s.Stats.Solves++
	if !s.okay {
		s.conflictSet = nil
		return Unsat
	}
	if s.stop.Load() || s.budgetSpent() {
		s.conflictSet = nil
		return Unknown
	}
	s.assumptions = s.assumptions[:0]
	for _, a := range assumptions {
		s.EnsureVars(a.Var())
		s.assumptions = append(s.assumptions, fromCNF(a))
	}
	s.conflictSet = nil
	s.model = nil
	s.lubyIndex = 0
	// Scale the learnt-clause cap to instance size: max(8000, clauses/3),
	// MiniSat style. Only ever raised, so reduceDB's geometric growth
	// across earlier Solve calls is preserved.
	if m := float64(s.originalClauses) / 3; m > s.maxLearnts {
		s.maxLearnts = m
	}
	defer s.cancelUntil(0)

	for {
		restartBudget := luby(s.lubyIndex) * 100
		s.lubyIndex++
		st := s.search(restartBudget)
		if st != Unknown {
			return st
		}
		if s.stop.Load() {
			return Unknown
		}
		s.Stats.Restarts++
		if s.budgetSpent() {
			return Unknown
		}
	}
}

// search runs CDCL until a result, a restart (after nConflicts), or a
// budget stop.
func (s *Solver) search(nConflicts int64) Status {
	var conflicts int64
	for {
		// One atomic load per propagate/decision round: negligible next
		// to propagation, and bounds the latency of Interrupt to a
		// single propagation pass.
		if s.stop.Load() {
			s.cancelUntil(s.assumptionLevel())
			return Unknown
		}
		confl := s.propagate()
		if confl >= 0 {
			s.Stats.Conflicts++
			conflicts++
			if s.progressFn != nil && s.Stats.Conflicts >= s.progressNext {
				s.progressNext = s.Stats.Conflicts + s.progressEvery
				s.progressFn(s.ProgressSnapshot())
			}
			if s.decisionLevel() == 0 {
				s.okay = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], -1) {
					s.okay = false
					return Unsat
				}
			} else {
				cref := s.attach(learnt, true, s.lbd(learnt))
				s.bumpClause(&s.clauses[cref])
				s.Stats.Learnt++
				if !s.enqueue(learnt[0], int32(cref)) {
					panic("sat: asserting literal rejected")
				}
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if float64(s.learntCount) > s.maxLearnts {
				s.reduceDB()
				s.maxLearnts *= 1.3
			}
			continue
		}
		if conflicts >= nConflicts {
			s.cancelUntil(s.assumptionLevel())
			return Unknown
		}
		// Choose the next decision: assumptions first.
		next := litUndef
		for s.decisionLevel() < len(s.assumptions) {
			a := s.assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case lTrue:
				// Already satisfied: open a dummy level to keep the
				// level/assumption correspondence.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				continue
			case lFalse:
				s.analyzeFinal(a.neg())
				return Unsat
			}
			next = a
			break
		}
		if next == litUndef {
			next = s.pickBranch()
			if next == litUndef {
				// All variables assigned: model found.
				s.saveModel()
				return Sat
			}
			s.Stats.Decisions++
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		if !s.enqueue(next, -1) {
			panic("sat: decision literal already assigned")
		}
	}
}

func (s *Solver) assumptionLevel() int {
	if len(s.assumptions) < s.decisionLevel() {
		return len(s.assumptions)
	}
	return s.decisionLevel()
}

func (s *Solver) pickBranch() lit {
	for {
		v, ok := s.heap.removeMin(s.activity)
		if !ok {
			return litUndef
		}
		if s.assigns[v] == lUndef {
			return mkLit(v, !s.phase[v])
		}
	}
}

func (s *Solver) saveModel() {
	s.model = make([]bool, len(s.assigns)+1)
	for v, a := range s.assigns {
		s.model[v+1] = a == lTrue
	}
}

// analyzeFinal computes the subset of assumptions responsible for the
// falsification of assumption literal p (given ¬p is implied).
func (s *Solver) analyzeFinal(notP lit) {
	s.conflictSet = s.conflictSet[:0]
	s.conflictSet = append(s.conflictSet, notP.neg())
	if s.decisionLevel() == 0 {
		return
	}
	seen := s.seen
	seen[notP.v()] = true
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].v()
		if !seen[v] {
			continue
		}
		if s.reason[v] < 0 {
			// A decision, i.e. an assumption.
			if s.trail[i] != notP.neg() {
				s.conflictSet = append(s.conflictSet, s.trail[i])
			}
		} else {
			for _, q := range s.litsOf(&s.clauses[s.reason[v]]) {
				if int(s.level[q.v()]) > 0 {
					seen[q.v()] = true
				}
			}
		}
		seen[v] = false
	}
	seen[notP.v()] = false
}

// Model returns the satisfying assignment of the last Sat result,
// indexed by 1-based variable (index 0 unused).
func (s *Solver) Model() []bool { return s.model }

// Core returns the failed assumptions of the last Unsat result: a subset
// of the assumptions that cannot all hold. Empty means the clause set is
// unsatisfiable regardless of assumptions.
func (s *Solver) Core() []cnf.Lit {
	out := make([]cnf.Lit, len(s.conflictSet))
	for i, l := range s.conflictSet {
		out[i] = l.toCNF()
	}
	return out
}

// EnumerateModels visits every satisfying assignment, projected onto the
// first nVars variables: after each model, its projection is blocked and
// the search continues. The solver's clause set is permanently extended
// by the blocking clauses. Enumeration stops when the visitor returns
// false or after limit models (0 = unlimited); the model count is
// returned. Intended for validation on small instances (e.g. checking
// the one-to-one repair correspondence of Proposition V.1), not for
// production counting.
func (s *Solver) EnumerateModels(nVars int, limit int64, visit func(model []bool) bool) int64 {
	s.EnsureVars(nVars)
	var count int64
	for {
		if s.Solve() != Sat {
			return count
		}
		count++
		model := s.Model()
		if visit != nil && !visit(model) {
			return count
		}
		if limit > 0 && count >= limit {
			return count
		}
		blocking := make([]cnf.Lit, nVars)
		for v := 1; v <= nVars; v++ {
			if model[v] {
				blocking[v-1] = cnf.Lit(-v)
			} else {
				blocking[v-1] = cnf.Lit(v)
			}
		}
		if !s.AddClause(blocking...) {
			return count
		}
	}
}
