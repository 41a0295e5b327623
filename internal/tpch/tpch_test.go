package tpch

import (
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

const testSF = 0.0005 // ~3000 lineitems

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testSF, 42)
	b := Generate(testSF, 42)
	if a.NumFacts() != b.NumFacts() {
		t.Fatalf("sizes differ: %d vs %d", a.NumFacts(), b.NumFacts())
	}
	for i := 0; i < a.NumFacts(); i++ {
		if !tupleOf(a, db.FactID(i)).Equal(tupleOf(b, db.FactID(i))) {
			t.Fatalf("fact %d differs", i)
		}
	}
	c := Generate(testSF, 43)
	same := true
	for i := 0; i < a.NumFacts() && i < c.NumFacts(); i++ {
		if !tupleOf(a, db.FactID(i)).Equal(tupleOf(c, db.FactID(i))) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGenerateConsistent(t *testing.T) {
	in := Generate(testSF, 1)
	for _, st := range in.KeyInconsistency() {
		if st.ViolatingFacts != 0 {
			t.Errorf("%s: %d violating facts in fresh data", st.Rel, st.ViolatingFacts)
		}
	}
	sz := SizesAt(testSF)
	if in.RelSize("lineitem") != sz.Lineitem || in.RelSize("orders") != sz.Orders {
		t.Errorf("cardinalities: lineitem %d orders %d", in.RelSize("lineitem"), in.RelSize("orders"))
	}
	if in.RelSize("region") != 5 || in.RelSize("nation") != 25 {
		t.Error("fixed relations wrong")
	}
}

func TestGenerateReferentialIntegrity(t *testing.T) {
	in := Generate(testSF, 7)
	sz := SizesAt(testSF)
	for _, id := range in.RelFacts("orders") {
		ck := in.ValueAt(id, 1).AsInt()
		if ck < 0 || ck >= int64(sz.Customer) {
			t.Fatalf("order references missing customer %d", ck)
		}
	}
	for _, id := range in.RelFacts("lineitem") {
		tup := tupleOf(in, id)
		if ok := tup[0].AsInt(); ok < 0 || ok >= int64(sz.Orders) {
			t.Fatalf("lineitem references missing order %d", ok)
		}
		if pk := tup[2].AsInt(); pk < 0 || pk >= int64(sz.Part) {
			t.Fatalf("lineitem references missing part %d", pk)
		}
	}
}

func TestInjectHitsTarget(t *testing.T) {
	in := Generate(testSF, 1)
	for _, pct := range []float64{5, 15, 35} {
		injected, err := Inject(in, InjectOptions{Percent: pct, MinGroup: 2, MaxGroup: 7, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range injected.KeyInconsistency() {
			if st.Facts < 100 {
				continue // tiny relations can't hit the target precisely
			}
			got := st.Percent()
			if got < pct-3 || got > pct+6 {
				t.Errorf("pct %.0f: %s at %.2f%%", pct, st.Rel, got)
			}
			if st.LargestGroup > 7 {
				t.Errorf("%s: group of %d exceeds 7", st.Rel, st.LargestGroup)
			}
		}
	}
}

func TestInjectPreservesRepairSize(t *testing.T) {
	in := Generate(testSF, 1)
	injected, err := Inject(in, InjectOptions{Percent: 20, MinGroup: 2, MaxGroup: 7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Repair size per relation = number of key-equal groups = original size.
	for _, st := range injected.KeyInconsistency() {
		want := in.RelSize(st.Rel)
		if st.Groups != want {
			t.Errorf("%s: %d groups, want repair size %d", st.Rel, st.Groups, want)
		}
	}
}

func TestInjectNoDuplicateTuples(t *testing.T) {
	in := Generate(testSF, 1)
	injected, err := Inject(in, InjectOptions{Percent: 25, MinGroup: 2, MaxGroup: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for id := db.FactID(0); int(id) < injected.NumFacts(); id++ {
		rel := injected.Schema().RelationByID(injected.RelOf(id)).Canon()
		tup := tupleOf(injected, id)
		positions := make([]int, len(tup))
		for i := range positions {
			positions[i] = i
		}
		k := rel + "|" + tup.Key(positions)
		if seen[k] {
			t.Fatalf("duplicate tuple in %s: %v", rel, tup)
		}
		seen[k] = true
	}
}

func TestInjectZeroPercentIsCopy(t *testing.T) {
	in := Generate(testSF, 1)
	injected, err := Inject(in, InjectOptions{Percent: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if injected.NumFacts() != in.NumFacts() {
		t.Error("zero-percent injection changed the data")
	}
}

func TestAllQueriesTranslate(t *testing.T) {
	for _, q := range append(ScalarQueries(), GroupedQueries()...) {
		tr, err := q.Translate()
		if err != nil {
			t.Errorf("%s: %v", q.Name, err)
			continue
		}
		if len(tr.Aggs) == 0 {
			t.Errorf("%s: no aggregates", q.Name)
		}
		if q.Grouped && len(tr.GroupCols) == 0 {
			t.Errorf("%s: expected grouping", q.Name)
		}
	}
}

func TestQueriesReturnRows(t *testing.T) {
	in := Generate(0.002, 11) // ~12k lineitems so selective queries still match
	e := cq.NewEvaluator(in)
	for _, q := range append(ScalarQueries(), GroupedQueries()...) {
		tr, err := q.Translate()
		if err != nil {
			t.Fatal(err)
		}
		res, err := cq.EvalAgg(e, tr.Aggs[0].Query)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if len(res) == 0 {
			t.Errorf("%s: zero groups", q.Name)
			continue
		}
		// Scalar results may legitimately be zero-valued only for very
		// selective queries; all our settings should produce data.
		if !q.Grouped && res[0].Value.Kind() == db.KindInt && res[0].Value.AsInt() == 0 {
			t.Errorf("%s: zero result; check selectivity constants", q.Name)
		}
	}
}

func TestQueryLookup(t *testing.T) {
	if _, err := QueryByName("Q6'"); err != nil {
		t.Error(err)
	}
	if _, err := QueryByName("Q99"); err == nil {
		t.Error("unknown query accepted")
	}
	if len(QueryNames()) != 15 {
		t.Errorf("QueryNames = %d entries", len(QueryNames()))
	}
}

// tupleOf materializes one fact's tuple through ValueAt.
func tupleOf(in *db.Instance, id db.FactID) db.Tuple {
	t := make(db.Tuple, in.Schema().RelationByID(in.RelOf(id)).Arity())
	for p := range t {
		t[p] = in.ValueAt(id, p)
	}
	return t
}
