package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
)

// closedFormCase is one random keys-mode solve unit: an instance of
// key-equal groups and a witness bag over its facts, aggregated by op,
// and a lowered elimination table budget.
type closedFormCase struct {
	in     *db.Instance
	op     cq.AggOp
	bag    []cq.Witness
	budget int
}

// genClosedFormCase draws 1–6 key-equal groups of 1–8 facts (at most
// 4096 repairs in all) and 1–12 witnesses, each holding one fact of 1–3
// distinct groups, so components couple violating groups up to
// elimination width 3. One case in four first chains every group to the
// next in a ring of two-fact witnesses, a cycle the elimination closes
// with a fill-in edge. A witness may also repeat a fact, hold a second
// fact of one of its groups (it is then in no repair) or consist of safe
// facts only; its value is NULL, zero, negative or positive, and its
// multiplicity 1–3. The lowered budget is a power of two from 2 to 1024.
func genClosedFormCase(r *rng) closedFormCase {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name:  "R",
		Attrs: []db.Attribute{{Name: "k", Kind: db.KindInt}, {Name: "i", Kind: db.KindInt}},
		Key:   []int{0},
	})
	in := db.NewInstance(s)
	var groups [][]db.FactID
	groupOf := map[db.FactID]int{}
	repairs := 1
	for k := range 1 + r.next(6) {
		size := min(1+r.next(8), 4096/repairs)
		repairs *= size
		var g []db.FactID
		for i := range size {
			f := in.MustInsert("R", db.Int(int64(k)), db.Int(int64(i)))
			g = append(g, f)
			groupOf[f] = len(groups)
		}
		groups = append(groups, g)
	}
	member := func(g []db.FactID) db.FactID { return g[r.next(len(g))] }
	c := closedFormCase{in: in, op: []cq.AggOp{cq.CountStar, cq.Count, cq.Sum}[r.next(3)], budget: 2 << r.next(10)}
	value := func() db.Value {
		switch r.next(5) {
		case 0:
			return db.Null()
		case 1:
			return db.Int(0)
		}
		return db.Int(int64(r.next(11) - 5))
	}
	if r.next(4) == 0 {
		for i, g := range groups {
			h := groups[(i+1)%len(groups)]
			c.bag = append(c.bag, cq.Witness{Facts: []db.FactID{member(g), member(h)}, Answer: db.Tuple{value()}, Mult: int64(1 + r.next(3))})
		}
	}
	for range 1 + r.next(12) {
		// A partial shuffle picks the distinct groups.
		order := make([]int, len(groups))
		for i := range order {
			order[i] = i
		}
		var facts []db.FactID
		for i := range min(1+r.next(3), len(groups)) {
			j := i + r.next(len(order)-i)
			order[i], order[j] = order[j], order[i]
			facts = append(facts, member(groups[order[i]]))
		}
		switch r.next(6) {
		case 0: // repeat a fact
			facts = append(facts, facts[r.next(len(facts))])
		case 1: // a second member of a group already held
			facts = append(facts, member(groups[groupOf[facts[0]]]))
		}
		c.bag = append(c.bag, cq.Witness{Facts: facts, Answer: db.Tuple{value()}, Mult: int64(1 + r.next(3))})
	}
	return c
}

// repairRange is the oracle: the minimum and maximum over every repair
// (internal/exhaustive's enumeration) of value(keep).
func repairRange(t *testing.T, in *db.Instance, value func(keep []bool) int64) (lo, hi int64) {
	t.Helper()
	first := true
	err := exhaustive.RepairsKeys(in, func(keep []bool) bool {
		v := value(keep)
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return lo, hi
}

// groupByAnswer groups a case's bag by its one answer value, as
// WitnessGroups with arity 1 groups an evaluated bag: groups ordered by
// key, each witness's answer cut to the empty suffix.
func groupByAnswer(bag []cq.Witness) []cq.WitnessGroup {
	var groups []cq.WitnessGroup
	for _, w := range bag {
		i := slices.IndexFunc(groups, func(g cq.WitnessGroup) bool { return g.Key.EqualExact(w.Answer) })
		if i < 0 {
			i = len(groups)
			groups = append(groups, cq.WitnessGroup{Key: w.Answer})
		}
		groups[i].Witnesses = append(groups[i].Witnesses, cq.Witness{Facts: w.Facts, Answer: w.Answer[1:], Mult: w.Mult})
	}
	slices.SortStableFunc(groups, func(a, b cq.WitnessGroup) int { return a.Key.Compare(b.Key) })
	return groups
}

func present(keep []bool, facts []db.FactID) bool {
	for _, f := range facts {
		if !keep[f] {
			return false
		}
	}
	return true
}

// elimTally counts the components of the checked cases: eliminated and
// declined under each case's lowered budget, and eliminated at the
// default budget per elimination width (at most 5 with 6 groups).
type elimTally struct {
	eliminated, declined int
	widths               [6]int
}

// checkClosedForm checks one case component by component — group
// elimination, the encoded Reduction IV.1 instance solved by MaxHS, and
// the repair enumeration agree on the falsified-weight range; under a
// lowered budget the kernel declines exactly the components whose
// largest table exceeds it; and the counted reduction size is the built
// formula's — and then checks the whole solve unit's range, at the
// default budget and at the case's lowered one, against the aggregate
// over every repair.
func checkClosedForm(t *testing.T, label string, c closedFormCase, tally *elimTally) {
	t.Helper()
	e, err := New(c.in, Options{Mode: KeysMode, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, rc := e.begin(context.Background(), "closed-form", label, "closed-form")
	cc := e.constraintCtx(ctx, rc)
	ws, err := prepareWitnesses(c.op, c.bag)
	if err != nil {
		t.Fatal(err)
	}
	split := splitComponents(cc, ws)
	// One kernel per budget, its scratch reused across the components
	// as in a solve unit.
	full := eliminator{cc: cc, bag: ws, budget: elimTableBudget}
	lowered := eliminator{cc: cc, bag: ws, budget: c.budget}
	for ci := range split.count() {
		facts, idx := split.component(ci)
		where := fmt.Sprintf("%s component %d (facts %v, witnesses %v)", label, ci, facts, idx)
		wantMin, wantMax := repairRange(t, c.in, func(keep []bool) int64 {
			var f int64
			for _, wi := range idx {
				if present(keep, ws.ws[wi].Facts) != ws.wt[wi].negative {
					f += ws.wt[wi].weight
				}
			}
			return f
		})
		satMin, satMax, err := e.solveComponent(ctx, cc, facts, ws, idx, rc)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if satMin != wantMin || satMax != wantMax {
			t.Fatalf("%s: MaxHS [%d, %d], repairs [%d, %d]", where, satMin, satMax, wantMin, wantMax)
		}
		elMin, elMax, shape, ok := full.solve(facts, idx)
		if !ok || elMin != wantMin || elMax != wantMax {
			t.Fatalf("%s: elimination [%d, %d] (ok %v, %+v), repairs [%d, %d]", where, elMin, elMax, ok, shape, wantMin, wantMax)
		}
		tally.widths[shape.width]++
		// The budget boundary: the largest table fits exactly, one entry
		// less declines (a component of safe facts only builds none).
		for _, b := range []int{shape.table, max(shape.table-1, 0)} {
			edge := eliminator{cc: cc, bag: ws, budget: b}
			if _, _, _, ok := edge.solve(facts, idx); ok != (shape.table <= b) {
				t.Fatalf("%s: budget %d, largest table %d: ok = %v", where, b, shape.table, ok)
			}
		}
		lo, hi, _, ok := lowered.solve(facts, idx)
		if ok != (shape.table <= c.budget) {
			t.Fatalf("%s: budget %d, largest table %d: ok = %v", where, c.budget, shape.table, ok)
		}
		if ok && (lo != wantMin || hi != wantMax) {
			t.Fatalf("%s: budget %d: elimination [%d, %d], repairs [%d, %d]", where, c.budget, lo, hi, wantMin, wantMax)
		}
		if ok {
			tally.eliminated++
		} else {
			tally.declined++
		}
		enc := newEncoder(cc, facts)
		enc.addWitnesses(ws, idx)
		formula := reductionSize(cc, facts, ws, idx)
		if st := enc.formula.Stats(); formula != (formulaSize{st.Vars, st.Clauses}) {
			t.Fatalf("%s: counted size %+v, built formula %d vars / %d clauses", where, formula, st.Vars, st.Clauses)
		}
	}

	glb, lub := repairRange(t, c.in, func(keep []bool) int64 {
		var agg int64
		for _, w := range c.bag {
			v := w.Answer[0]
			switch {
			case !present(keep, w.Facts):
			case c.op == cq.CountStar:
				agg += w.Mult
			case v.IsNull():
			case c.op == cq.Count:
				agg += w.Mult
			default:
				agg += w.Mult * v.AsInt()
			}
		}
		return agg
	})
	for _, budget := range []int{elimTableBudget, c.budget} {
		e.elimBudget = budget
		got, err := e.sumCountFromGroup(ctx, c.op, cq.WitnessGroup{Witnesses: c.bag}, rc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.GLB.AsInt() != glb || got.LUB.AsInt() != lub {
			t.Fatalf("%s: budget %d: %s range [%v, %v], repairs [%d, %d]", label, budget, c.op, got.GLB, got.LUB, glb, lub)
		}
	}
}

// splitByClosure is the keys-mode split computed over the closure's
// fact positions: witness co-occurrence and key-equal groups unioned,
// components numbered in closure order, each component's facts and
// witnesses listed. splitKeys must reproduce it.
func splitByClosure(cc *constraintContext, witnessFacts [][]db.FactID) (compFacts [][]db.FactID, compWits [][]int32) {
	var seed []db.FactID
	for _, fs := range witnessFacts {
		seed = append(seed, fs...)
	}
	facts := cc.closure(seed)
	pos := func(f db.FactID) int32 {
		i, _ := slices.BinarySearch(facts, f)
		return int32(i)
	}
	uf := newUnionFind(len(facts))
	for _, fs := range witnessFacts {
		for _, f := range fs {
			uf.union(pos(fs[0]), pos(f))
		}
	}
	for i, f := range facts {
		if gi := cc.keys.GroupOf(f); gi >= 0 {
			uf.union(int32(i), pos(cc.keys.Members(gi)[0]))
		}
	}
	comp := map[int32]int{}
	for i, f := range facts {
		r := uf.find(int32(i))
		ci, ok := comp[r]
		if !ok {
			ci = len(compFacts)
			comp[r] = ci
			compFacts = append(compFacts, nil)
			compWits = append(compWits, nil)
		}
		compFacts[ci] = append(compFacts[ci], f)
	}
	for wi, fs := range witnessFacts {
		if len(fs) > 0 {
			ci := comp[uf.find(pos(fs[0]))]
			compWits[ci] = append(compWits[ci], int32(wi))
		}
	}
	return compFacts, compWits
}

// TestSplitKeysOrder: the keys-mode split on group ids gives the
// components, their facts and their witnesses in the order of the split
// over closure positions, so explain indices do not move.
func TestSplitKeysOrder(t *testing.T) {
	for seed := 1; seed <= 200; seed++ {
		r := rng(uint64(seed)*0x9e3779b97f4a7c15 + 7)
		// Facts of up to 8 key values inserted in random order, so the
		// groups' members interleave, and witnesses of 1–3 random facts.
		s := db.NewSchema()
		s.MustAddRelation(&db.RelationSchema{
			Name:  "R",
			Attrs: []db.Attribute{{Name: "k", Kind: db.KindInt}, {Name: "i", Kind: db.KindInt}},
			Key:   []int{0},
		})
		in := db.NewInstance(s)
		n := 2 + r.next(30)
		for i := range n {
			in.MustInsert("R", db.Int(int64(r.next(8))), db.Int(int64(i)))
		}
		var witnessFacts [][]db.FactID
		var bag []cq.Witness
		for range r.next(10) {
			var fs []db.FactID
			for range 1 + r.next(3) {
				fs = append(fs, db.FactID(r.next(n)))
			}
			slices.Sort(fs)
			witnessFacts = append(witnessFacts, slices.Compact(fs))
			bag = append(bag, cq.Witness{Facts: witnessFacts[len(witnessFacts)-1]})
		}
		e, err := New(in, Options{Mode: KeysMode})
		if err != nil {
			t.Fatal(err)
		}
		ctx, rc := e.begin(context.Background(), "split", "split", "split")
		cc := e.constraintCtx(ctx, rc)
		// Twice: the second split reuses the pooled group table.
		for range 2 {
			split := splitKeys(cc, weightedBag{ws: bag})
			var gotFacts [][]db.FactID
			var gotWits [][]int32
			for c := range split.count() {
				facts, idx := split.component(c)
				gotFacts = append(gotFacts, facts)
				gotWits = append(gotWits, idx)
			}
			wantFacts, wantWits := splitByClosure(cc, witnessFacts)
			if !slices.EqualFunc(gotFacts, wantFacts, slices.Equal) || !slices.EqualFunc(gotWits, wantWits, slices.Equal) {
				t.Fatalf("seed %d: split %v / %v, by closure %v / %v", seed, gotFacts, gotWits, wantFacts, wantWits)
			}
		}
	}
}

// checkTally counts the consistency candidates and MIN/MAX probe sets
// of the checked cases that group elimination answered and that the
// cases' lowered budgets declined to the SAT checks.
type checkTally struct {
	eliminated, declined int
}

// checkChecks checks the consistency filter and the MIN/MAX probes on
// one case against repair enumeration, at the default budget (group
// elimination, no SAT call), at the case's lowered budget (the
// candidates and probe sets it declines take the SAT checks) and at
// budget 0 (every check on SAT). The case's witnesses, grouped by
// value, are the candidates of CONS and the bag of MIN and of MAX. The
// counted formula size must be the one the SAT checks build.
func checkChecks(t *testing.T, label string, c closedFormCase, tally *checkTally) {
	t.Helper()
	e, err := New(c.in, Options{Mode: KeysMode, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	groups := groupByAnswer(c.bag)
	var wantCons []bool
	for _, g := range groups {
		cons := true
		err := exhaustive.RepairsKeys(c.in, func(keep []bool) bool {
			cons = slices.ContainsFunc(g.Witnesses, func(w cq.Witness) bool { return present(keep, w.Facts) })
			return cons
		})
		if err != nil {
			t.Fatal(err)
		}
		wantCons = append(wantCons, cons)
	}
	// Sharded across four workers, at both budgets that eliminate.
	par, err := New(c.in, Options{Mode: KeysMode, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{elimTableBudget, c.budget} {
		par.elimBudget = budget
		ctx, rc := par.begin(context.Background(), "checks", label, "checks")
		got, err := par.consistentGroups(ctx, groups, rc)
		if err != nil || !slices.Equal(got, wantCons) {
			t.Fatalf("%s: budget %d, 4 workers: consistent %v (%v), repairs %v", label, budget, got, err, wantCons)
		}
	}
	type outcome struct {
		cons     []bool
		min, max Range
		stats    Stats
	}
	var ref outcome
	for _, budget := range []int{elimTableBudget, c.budget, 0} {
		e.elimBudget = budget
		where := fmt.Sprintf("%s: budget %d", label, budget)
		ctx, rc := e.begin(context.Background(), "checks", label, "checks")
		var got outcome
		if got.cons, err = e.consistentGroups(ctx, groups, rc); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !slices.Equal(got.cons, wantCons) {
			t.Fatalf("%s: consistent %v, repairs %v", where, got.cons, wantCons)
		}
		consCalls := rc.stats.SATCalls
		for _, op := range []cq.AggOp{cq.Min, cq.Max} {
			r, err := e.minMaxFromBag(ctx, op, c.bag, rc)
			if err != nil {
				t.Fatalf("%s: %s: %v", where, op, err)
			}
			if want := minMaxOracle(t, c, op); !sameRange(r, want) {
				t.Fatalf("%s: %s %+v, repairs %+v", where, op, r, want)
			}
			if op == cq.Min {
				got.min = r
			} else {
				got.max = r
			}
		}
		got.stats = rc.stats
		switch budget {
		case elimTableBudget:
			if got.stats.SATCalls != 0 {
				t.Fatalf("%s: %d SAT calls", where, got.stats.SATCalls)
			}
			ref = got
		case 0:
			checked := 0
			for _, g := range groups {
				if !slices.ContainsFunc(g.Witnesses, func(w cq.Witness) bool { return e.ctx.allSafe(w.Facts) }) {
					checked++
				}
			}
			if consCalls != int64(checked) {
				t.Fatalf("%s: %d consistency SAT calls for %d checked candidates", where, consCalls, checked)
			}
		default:
			if consCalls > 0 || got.stats.SATCalls > 0 {
				tally.declined++
			} else {
				tally.eliminated++
			}
		}
		if got.stats.Vars != ref.stats.Vars || got.stats.Clauses != ref.stats.Clauses ||
			got.stats.MaxVars != ref.stats.MaxVars || got.stats.MaxClauses != ref.stats.MaxClauses {
			t.Fatalf("%s: CNF %d/%d (max %d/%d), counted at the default budget %d/%d (max %d/%d)", where,
				got.stats.Vars, got.stats.Clauses, got.stats.MaxVars, got.stats.MaxClauses,
				ref.stats.Vars, ref.stats.Clauses, ref.stats.MaxVars, ref.stats.MaxClauses)
		}
	}
}

// minMaxOracle is op's range over every repair: the endpoints over the
// repairs where some witness of non-NULL value is present, and whether
// some repair has none.
func minMaxOracle(t *testing.T, c closedFormCase, op cq.AggOp) Range {
	t.Helper()
	res := Range{GLB: db.Null(), LUB: db.Null()}
	err := exhaustive.RepairsKeys(c.in, func(keep []bool) bool {
		agg := db.Null()
		for _, w := range c.bag {
			v := w.Answer[0]
			if v.IsNull() || !present(keep, w.Facts) {
				continue
			}
			if agg.IsNull() || op == cq.Min && v.Compare(agg) < 0 || op == cq.Max && v.Compare(agg) > 0 {
				agg = v
			}
		}
		if agg.IsNull() {
			res.EmptyPossible = true
			return true
		}
		if res.GLB.IsNull() || agg.Compare(res.GLB) < 0 {
			res.GLB = agg
		}
		if res.LUB.IsNull() || agg.Compare(res.LUB) > 0 {
			res.LUB = agg
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameRange(a, b Range) bool {
	return a.GLB.EqualExact(b.GLB) && a.LUB.EqualExact(b.LUB) && a.EmptyPossible == b.EmptyPossible
}

// TestClosedFormOracle is the kernel's property test over seeded random
// components: elimination ≡ encode + MaxHS ≡ repair enumeration, with
// every width from 0 to 3 reached, and for the consistency filter and
// the MIN/MAX probes elimination ≡ SAT checks ≡ repair enumeration.
func TestClosedFormOracle(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 100
	}
	var tally elimTally
	var checks checkTally
	for seed := 1; seed <= n; seed++ {
		r := rng(uint64(seed)*0x9e3779b97f4a7c15 + 1)
		c := genClosedFormCase(&r)
		label := fmt.Sprintf("seed %d", seed)
		checkClosedForm(t, label, c, &tally)
		checkChecks(t, label, c, &checks)
	}
	// The generator must exercise both sides of the budget test and
	// every width up to 3.
	if tally.eliminated == 0 || tally.declined == 0 || slices.Contains(tally.widths[:4], 0) {
		t.Errorf("%+v: the generator misses a side or a width", tally)
	}
	if checks.eliminated == 0 || checks.declined == 0 {
		t.Errorf("%+v: the lowered budgets miss a side of the CONS and MIN/MAX checks", checks)
	}
	t.Logf("%d components eliminated, %d declined under the lowered budgets; by width %v", tally.eliminated, tally.declined, tally.widths)
	t.Logf("CONS and MIN/MAX under the lowered budgets: %d cases eliminated whole, %d with a check on SAT", checks.eliminated, checks.declined)
}

// FuzzClosedForm mutates the seed of the same generator, checking the
// range components and the CONS and MIN/MAX checks of each case.
func FuzzClosedForm(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42, 1234567, 0x9e3779b97f4a7c15} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if seed == 0 {
			seed = 1 // the xorshift generator is stuck at zero
		}
		r := rng(seed)
		c := genClosedFormCase(&r)
		checkClosedForm(t, fmt.Sprintf("seed %d", seed), c, &elimTally{})
		checkChecks(t, fmt.Sprintf("seed %d", seed), c, &checkTally{})
	})
}

// TestClosedFormOverflow: a component whose total soft weight leaves
// the int64 range fails with ErrOverflow before any kernel runs.
func TestClosedFormOverflow(t *testing.T) {
	r := rng(5)
	c := genClosedFormCase(&r)
	c.op = cq.Sum
	big := int64(1) << 62
	c.bag = []cq.Witness{
		{Facts: []db.FactID{0}, Answer: db.Tuple{db.Int(big)}, Mult: 1},
		{Facts: []db.FactID{0}, Answer: db.Tuple{db.Int(-big)}, Mult: 1},
	}
	e, err := New(c.in, Options{Mode: KeysMode})
	if err != nil {
		t.Fatal(err)
	}
	ctx, rc := e.begin(context.Background(), "overflow", "overflow", "overflow")
	if _, err := e.sumCountFromGroup(ctx, c.op, cq.WitnessGroup{Witnesses: c.bag}, rc); !errors.Is(err, ErrOverflow) {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
}

// BenchmarkComponentSolve answers one component by group elimination
// and by encoding Reduction IV.1 and solving both directions with MaxHS.
// single-group is a key-equal group of
// five facts with one SUM witness per fact, two of them negative (width
// 0); coupled is three groups of four facts pairwise coupled by SUM
// witnesses of two facts each (width 2, largest table 64).
func BenchmarkComponentSolve(b *testing.B) {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name:  "R",
		Attrs: []db.Attribute{{Name: "k", Kind: db.KindInt}, {Name: "i", Kind: db.KindInt}},
		Key:   []int{0},
	})
	in := db.NewInstance(s)
	var single, coupled []cq.Witness
	for i := range 5 {
		f := in.MustInsert("R", db.Int(0), db.Int(int64(i)))
		single = append(single, cq.Witness{Facts: []db.FactID{f}, Answer: db.Tuple{db.Int(int64(3*i - 4))}, Mult: 1})
	}
	var groups [3][4]db.FactID
	for g := range groups {
		for i := range groups[g] {
			groups[g][i] = in.MustInsert("R", db.Int(int64(1+g)), db.Int(int64(i)))
		}
	}
	for i := range 4 {
		for g := range 3 {
			h := (g + 1) % 3
			v := int64(7*i - 5*g - 3)
			coupled = append(coupled, cq.Witness{Facts: []db.FactID{groups[g][i], groups[h][(i+g)%4]}, Answer: db.Tuple{db.Int(v)}, Mult: 1})
		}
	}
	e, err := New(in, Options{Mode: KeysMode, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx, rc := e.begin(context.Background(), "bench", "bench", "bench")
	cc := e.constraintCtx(ctx, rc)
	for _, bc := range []struct {
		name  string
		bag   []cq.Witness
		width int
	}{{"single-group", single, 0}, {"coupled", coupled, 2}} {
		ws, err := prepareWitnesses(cq.Sum, bc.bag)
		if err != nil {
			b.Fatal(err)
		}
		var seed []db.FactID
		idx := make([]int32, len(bc.bag))
		for i, w := range bc.bag {
			seed = append(seed, w.Facts...)
			idx[i] = int32(i)
		}
		facts := cc.closure(seed)
		b.Run(bc.name+"/elimination", func(b *testing.B) {
			el := eliminator{cc: cc, bag: ws, budget: elimTableBudget}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, shape, ok := el.solve(facts, idx); !ok || shape.width != bc.width {
					b.Fatalf("ok %v, %+v: want width %d", ok, shape, bc.width)
				}
			}
		})
		b.Run(bc.name+"/encode+maxhs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.solveComponent(ctx, cc, facts, ws, idx, rc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
