package constraints

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

// randomConsInstance builds a two-relation instance with deliberate key
// collisions, exact duplicate rows (key-equal but violation-free), and
// INT values in a FLOAT column (kind-exact key grouping, Compare-based
// attribute comparison).
func randomConsInstance(rng *xrand.Rand, n int) *db.Instance {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "a", Kind: db.KindFloat},
			{Name: "b", Kind: db.KindString},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "S",
		Attrs: []db.Attribute{
			{Name: "k1", Kind: db.KindString},
			{Name: "k2", Kind: db.KindInt},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0, 1},
	})
	in := db.NewInstance(s)
	for i := 0; i < n; i++ {
		a := db.Value(db.Float(float64(rng.Intn(3))))
		if rng.Bool(0.3) {
			a = db.Int(int64(rng.Intn(3))) // Compare-equal to a Float twin
		}
		if rng.Bool(0.1) {
			a = db.Null()
		}
		in.MustInsert("R", db.Int(int64(rng.Intn(n/3+1))), a, db.Str(fmt.Sprintf("b%d", rng.Intn(2))))
		in.MustInsert("S",
			db.Str(fmt.Sprintf("s%d", rng.Intn(n/4+1))), db.Int(int64(rng.Intn(2))),
			db.Int(int64(rng.Intn(3))))
	}
	return in
}

// MinimalViolationsGeneric is MinimalViolations with the FD fast path
// disabled: every DC body is instantiated by the evaluator. It is the
// semantic reference the fast path is checked against (exported for the
// package's external tests too).
func MinimalViolationsGeneric(e *cq.Evaluator, dcs []DC) []Violation {
	dedup := newVioDedup()
	for _, dc := range dcs {
		for _, w := range e.WitnessBag(cq.Single(dc.Body())) {
			dedup.add(w.Facts)
		}
	}
	return sortedMinimal(dedup.all)
}

func violationsEqual(a, b []Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if compareIDs(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestFastPathMatchesGeneric is the key equivalence property: with the
// complete key-DC family the FD partitions (here the key index) must
// reproduce the generic result exactly, across randomized instances.
func TestFastPathMatchesGeneric(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := xrand.New(uint64(trial)*48271 + 11)
		in := randomConsInstance(rng, 30+rng.Intn(60))
		dcs, err := SchemaKeyDCs(in.Schema())
		if err != nil {
			t.Fatal(err)
		}
		e := cq.NewEvaluator(in)
		fast := MinimalViolations(e, dcs)
		slow := MinimalViolationsGeneric(e, dcs)
		if !violationsEqual(fast, slow) {
			t.Fatalf("trial %d: fast path differs (%d vs %d)\nfast: %v\nslow: %v",
				trial, len(fast), len(slow), fast, slow)
		}
		// Independent minimality oracle: no violation contains another.
		for i := range fast {
			for j := range fast {
				if i != j && len(fast[i]) < len(fast[j]) && isSubsetIDs(fast[i], fast[j]) {
					t.Fatalf("trial %d: non-minimal violation %v ⊃ %v", trial, fast[j], fast[i])
				}
			}
		}
	}
}

// TestFastPathHybridDCSet mixes the key DCs with a singleton DC whose
// violations subsume key pairs: the merged minimality filter must agree
// with the generic path.
func TestFastPathHybridDCSet(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := xrand.New(uint64(trial)*69621 + 5)
		in := randomConsInstance(rng, 40)
		dcs, _ := SchemaKeyDCs(in.Schema())
		singleton := DC{
			Name:  "no-b0",
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("a"), cq.V("b")}}},
			Conds: []cq.Condition{{Left: cq.V("b"), Op: cq.OpEQ, Right: cq.C(db.Str("b0"))}},
		}
		dcs = append(dcs, singleton)
		e := cq.NewEvaluator(in)
		fast := MinimalViolations(e, dcs)
		slow := MinimalViolationsGeneric(e, dcs)
		if !violationsEqual(fast, slow) {
			t.Fatalf("trial %d: hybrid fast path differs (%d vs %d)", trial, len(fast), len(slow))
		}
	}
}

// TestPartialKeyDCSetOnPartition drops one DC of a relation's key
// family: the rest still reads the key partition, comparing only the
// positions of the DCs present (all pairs that differ anywhere would
// over-report), and results match the generic reference.
func TestPartialKeyDCSetOnPartition(t *testing.T) {
	rng := xrand.New(17)
	in := randomConsInstance(rng, 50)
	rDCs, _ := KeyDCs(in.Schema().Relation("R")) // k -> a and k -> b
	if len(rDCs) != 2 {
		t.Fatalf("expected 2 key DCs for R, got %d", len(rDCs))
	}
	partial := rDCs[:1]
	parts, generic := splitFDs(in.Schema(), partial)
	if len(parts) != 1 || len(generic) != 0 || !slices.Equal(parts[0].rhs, []int{1}) {
		t.Fatalf("partial key-DC set: parts=%v generic=%d", parts, len(generic))
	}
	e := cq.NewEvaluator(in)
	if !violationsEqual(MinimalViolations(e, partial), MinimalViolationsGeneric(e, partial)) {
		t.Fatal("partial key-DC set: results differ")
	}
	// The complete family is one partition comparing both positions.
	parts, generic = splitFDs(in.Schema(), rDCs)
	if len(parts) != 1 || len(generic) != 0 || !slices.Equal(parts[0].rhs, []int{1, 2}) {
		t.Fatalf("complete key-DC family: parts=%v generic=%d", parts, len(generic))
	}
}

// TestRenamedKeyDCOnPartition: a hand-written FD with its own variable
// names and the condition's operands swapped is the same shape, so it
// reads the key partition too.
func TestRenamedKeyDCOnPartition(t *testing.T) {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "T",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	renamed := DC{
		Name: "hand-written",
		Atoms: []cq.Atom{
			{Rel: "t", Args: []cq.Term{cq.V("key"), cq.V("x")}},
			{Rel: "T", Args: []cq.Term{cq.V("key"), cq.V("y")}},
		},
		Conds: []cq.Condition{{Left: cq.V("y"), Op: cq.OpNE, Right: cq.V("x")}},
	}
	parts, generic := splitFDs(s, []DC{renamed})
	if len(parts) != 1 || len(generic) != 0 || !slices.Equal(parts[0].lhs, []int{0}) || !slices.Equal(parts[0].rhs, []int{1}) {
		t.Fatalf("renamed DC misclassified: parts=%v generic=%d", parts, len(generic))
	}
	in := db.NewInstance(s)
	in.MustInsert("T", db.Int(1), db.Int(10))
	in.MustInsert("T", db.Int(1), db.Int(20))
	e := cq.NewEvaluator(in)
	vs := MinimalViolations(e, []DC{renamed})
	if len(vs) != 1 || len(vs[0]) != 2 {
		t.Fatalf("violations = %v", vs)
	}
}

// fdSchema is R(k INT key, a FLOAT, b STRING, c INT) beside keyless
// T(x STRING, y FLOAT, z INT, w STRING): every non-key column takes
// NULLs, and the FLOAT columns mix INT and FLOAT values (Int(1) and
// Float(1) fall in different partition groups but Compare equal).
func fdSchema() *db.Schema {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{Name: "R", Key: []int{0}, Attrs: []db.Attribute{
		{Name: "k", Kind: db.KindInt}, {Name: "a", Kind: db.KindFloat},
		{Name: "b", Kind: db.KindString}, {Name: "c", Kind: db.KindInt},
	}})
	s.MustAddRelation(&db.RelationSchema{Name: "T", Attrs: []db.Attribute{
		{Name: "x", Kind: db.KindString}, {Name: "y", Kind: db.KindFloat},
		{Name: "z", Kind: db.KindInt}, {Name: "w", Kind: db.KindString},
	}})
	return s
}

func randomFDInstance(rng *xrand.Rand, n int) *db.Instance {
	in := db.NewInstance(fdSchema())
	null := func(v db.Value) db.Value {
		if rng.Bool(0.15) {
			return db.Null()
		}
		return v
	}
	num := func() db.Value {
		if rng.Bool(0.4) {
			return db.Int(int64(rng.Intn(3)))
		}
		return db.Float(float64(rng.Intn(3)))
	}
	str := func(p string) db.Value { return db.Str(fmt.Sprintf("%s%d", p, rng.Intn(3))) }
	for i := 0; i < n; i++ {
		in.MustInsert("R", db.Int(int64(rng.Intn(n/4+1))), null(num()), null(str("b")), null(db.Int(int64(rng.Intn(2)))))
		in.MustInsert("T", null(str("x")), null(num()), null(db.Int(int64(rng.Intn(2)))), null(str("w")))
	}
	return in
}

// randomFD returns the DCs of a random FD over R or T (left-hand side
// any subset of the positions, the empty one and R's key included),
// with variables renamed, the condition's operands swapped or the
// atoms swapped at random: all of them FD-shaped.
func randomFD(rng *xrand.Rand, s *db.Schema) []DC {
	rs := s.Relations()[rng.Intn(2)]
	var lhs, rhs []string
	for _, a := range rs.Attrs {
		switch rng.Intn(3) {
		case 0:
			lhs = append(lhs, a.Name)
		case 1:
			rhs = append(rhs, a.Name)
		}
	}
	if len(rhs) == 0 {
		return nil
	}
	dcs, err := FD(rs, lhs, rhs...)
	if err != nil {
		panic(err)
	}
	for i := range dcs {
		d := &dcs[i]
		if rng.Bool(0.5) {
			rename := func(t cq.Term) cq.Term { return cq.V("v_" + t.Var) }
			for _, a := range d.Atoms {
				for j := range a.Args {
					a.Args[j] = rename(a.Args[j])
				}
			}
			d.Conds[0].Left, d.Conds[0].Right = rename(d.Conds[0].Left), rename(d.Conds[0].Right)
		}
		if rng.Bool(0.5) {
			d.Conds[0].Left, d.Conds[0].Right = d.Conds[0].Right, d.Conds[0].Left
		}
		if rng.Bool(0.5) {
			d.Atoms[0], d.Atoms[1] = d.Atoms[1], d.Atoms[0]
		}
	}
	return dcs
}

// nonFD turns an FD-shaped DC into one of the shapes that must stay
// generic. It returns false when the DC has no room for the mutation.
func nonFD(rng *xrand.Rand, in *db.Instance, d DC) (DC, bool) {
	x := slices.Clone(d.Atoms[0].Args)
	y := slices.Clone(d.Atoms[1].Args)
	c := d.Conds[0]
	var lhs, free []int
	for i := range x {
		if x[i].Var == y[i].Var {
			lhs = append(lhs, i)
		} else {
			free = append(free, i)
		}
	}
	switch rng.Intn(9) {
	case 0: // another operator
		c.Op = []cq.CmpOp{cq.OpLT, cq.OpEQ, cq.OpGE}[rng.Intn(3)]
	case 1: // a second condition
		p := free[rng.Intn(len(free))]
		d.Conds = append(slices.Clone(d.Conds), cq.Condition{Left: x[p], Op: cq.OpNE, Right: y[p]})
	case 2: // a constant taken from some fact
		i := rng.Intn(len(x))
		rel := in.RelFacts(d.Atoms[0].Rel)
		v := in.ValueAt(rel[rng.Intn(len(rel))], i)
		if v.IsNull() || x[i].Var == c.Left.Var || x[i].Var == c.Right.Var {
			return d, false
		}
		x[i] = cq.C(v)
	case 3: // a variable shared across two positions
		if len(free) < 3 {
			return d, false
		}
		i, j := free[0], free[1]
		if x[i].Var == c.Left.Var || x[i].Var == c.Right.Var || y[j].Var == c.Left.Var || y[j].Var == c.Right.Var {
			i, j = free[1], free[2]
			if x[i].Var == c.Left.Var || x[i].Var == c.Right.Var || y[j].Var == c.Left.Var || y[j].Var == c.Right.Var {
				return d, false
			}
		}
		y[j] = x[i]
	case 4: // a variable repeated within one atom
		if len(free) < 3 {
			return d, false
		}
		i, j := free[0], free[1]
		if y[j].Var == c.Left.Var || y[j].Var == c.Right.Var {
			i, j = free[1], free[2]
			if y[j].Var == c.Left.Var || y[j].Var == c.Right.Var {
				return d, false
			}
		}
		y[j] = y[i]
	case 5: // the condition on a left-hand side position
		if len(lhs) == 0 {
			return d, false
		}
		l := lhs[rng.Intn(len(lhs))]
		c.Left, c.Right = x[l], y[l]
	case 6: // the condition across two positions
		if len(free) < 2 {
			return d, false
		}
		c.Left, c.Right = x[free[0]], y[free[1]]
	case 7: // the second atom over the other relation (equal arity)
		other := "T"
		if strings.EqualFold(d.Atoms[0].Rel, "T") {
			other = "R"
		}
		d.Atoms = []cq.Atom{d.Atoms[0], {Rel: other, Args: y}}
		d.Conds = []cq.Condition{c}
		return d, true
	case 8: // one atom only
		p := free[0]
		c = cq.Condition{Left: x[p], Op: cq.OpNE, Right: cq.C(db.Int(1))}
		if in.Schema().Relation(d.Atoms[0].Rel).Attrs[p].Kind == db.KindString {
			c.Right = cq.C(db.Str("b1"))
		}
		d.Atoms = []cq.Atom{{Rel: d.Atoms[0].Rel, Args: x}}
		d.Conds = []cq.Condition{c}
		return d, true
	}
	d.Atoms = []cq.Atom{{Rel: d.Atoms[0].Rel, Args: x}, {Rel: d.Atoms[1].Rel, Args: y}}
	if len(d.Conds) == 1 {
		d.Conds = []cq.Condition{c}
	}
	return d, true
}

// TestFDPathDifferential: on random instances with composite and NULL
// left-hand sides and INT/FLOAT mixes in FLOAT columns, random sets of
// FD-shaped DCs (renamed, operands and atoms swapped, any left-hand
// side, partial key families) and non-FD shapes give MinimalViolations
// identical to the all-generic self-join, and every non-FD shape stays
// generic.
func TestFDPathDifferential(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := xrand.New(uint64(trial)*7919 + 3)
		in := randomFDInstance(rng, 10+rng.Intn(50))
		var dcs []DC
		for k := 1 + rng.Intn(3); k > 0; k-- {
			for _, d := range randomFD(rng, in.Schema()) {
				if _, _, _, ok := fdShape(in.Schema(), d); !ok {
					t.Fatalf("trial %d: FD-shaped DC %v classified generic", trial, d)
				}
				if rng.Bool(0.3) {
					mutated, ok := nonFD(rng, in, d)
					if !ok {
						continue
					}
					if _, _, _, fd := fdShape(in.Schema(), mutated); fd {
						t.Fatalf("trial %d: %v classified FD-shaped", trial, mutated)
					}
					d = mutated
				}
				dcs = append(dcs, d)
			}
		}
		e := cq.NewEvaluator(in)
		fast, slow := MinimalViolations(e, dcs), MinimalViolationsGeneric(e, dcs)
		if !violationsEqual(fast, slow) {
			t.Fatalf("trial %d: %d vs %d violations for %v\nfast: %v\nslow: %v", trial, len(fast), len(slow), dcs, fast, slow)
		}
	}
}

// TestCachedConstraints checks CachedConstraintsInfo against a direct
// computation, before and after an insert: it memoizes nothing, so an
// insert is always seen.
func TestCachedConstraints(t *testing.T) {
	rng := xrand.New(23)
	in := randomConsInstance(rng, 40)
	dcs, _ := SchemaKeyDCs(in.Schema())
	e := cq.NewEvaluator(in)
	v1, n1, hit := CachedConstraintsInfo(e, dcs)
	if hit {
		t.Error("CachedConstraintsInfo reported a memo hit")
	}
	if !violationsEqual(v1, MinimalViolations(e, dcs)) {
		t.Error("violations differ from direct computation")
	}
	if n1 == nil || len(n1.InViolation) != in.NumFacts() {
		t.Error("near-violation index not sized to the instance")
	}
	in.MustInsert("R", db.Int(0), db.Float(99), db.Str("zzz"))
	e2 := cq.NewEvaluator(in)
	v2, n2, _ := CachedConstraintsInfo(e2, dcs)
	if n2 == nil || len(n2.InViolation) != in.NumFacts() {
		t.Error("post-insert index not rebuilt for the new fact count")
	}
	if !violationsEqual(v2, MinimalViolations(e2, dcs)) {
		t.Error("post-insert violations wrong")
	}
}
