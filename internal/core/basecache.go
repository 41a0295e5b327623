package core

import (
	"sync"

	"aggcavsat/internal/db"
	"aggcavsat/internal/maxsat"
)

// incremental reports whether the engine runs the shared-base solve
// path: hard clauses loaded into a solver once per component and cloned
// per MaxSAT run, with both optimization directions (and the MaxHS→RC2
// fallback) served from the same base. External solvers cannot share a
// base — each invocation consumes a standalone WCNF file — so they run
// the formula path: one WCNF per MaxSAT run, with an explicit
// NegateSoft copy for the lub direction.
func (e *Engine) incremental() bool {
	return e.opts.MaxSAT.SolverPath == ""
}

// baseEntry is one cached component: built at most once under once,
// then shared read-only (the HardBase is only ever cloned, and varOf is
// never written after construction).
type baseEntry struct {
	once sync.Once
	enc  *encoder
	base *maxsat.HardBase
}

// componentKey serializes a component's sorted closure fact list into a
// map key (4 bytes per fact, little-endian).
// Closure fact sets are canonical: two solve units entangle the same
// facts iff their components coincide, so the key identifies the hard
// formula exactly.
func componentKey(facts []db.FactID) string {
	b := make([]byte, 0, 4*len(facts))
	for _, f := range facts {
		b = append(b, byte(f), byte(f>>8), byte(f>>16), byte(f>>24))
	}
	return string(b)
}

// componentBase returns the hard-clause encoding of one component
// together with its loaded solver base, building both on first use and
// serving every later request — concurrent workers of the same query or
// later queries over the same component — from the cache.
//
// The returned encoder wraps the cached formula in a copy-on-append
// Snapshot: callers append their own soft clauses (and auxiliary hard
// clauses — presentLit/brokenLit definitions) without contaminating the
// cache. varOf is shared and must be treated as read-only, which every
// caller honours (fact variables are only ever looked up after the
// encoder is built).
//
// hit reports the cache outcome: true when the entry was served without
// running the build (false exactly for the one caller whose once body
// constructed it).
func (e *Engine) componentBase(cc *constraintContext, facts []db.FactID) (enc *encoder, base *maxsat.HardBase, hit bool) {
	v, _ := e.bases.LoadOrStore(componentKey(facts), &baseEntry{})
	ent := v.(*baseEntry)
	built := false
	ent.once.Do(func() {
		ent.enc = newEncoder(cc, facts)
		ent.base = maxsat.NewHardBase(ent.enc.formula)
		built = true
	})
	return &encoder{formula: ent.enc.formula.Snapshot(), varOf: ent.enc.varOf}, ent.base, !built
}
