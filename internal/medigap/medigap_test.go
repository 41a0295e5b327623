package medigap

import (
	"strings"
	"testing"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

func TestSchemaShape(t *testing.T) {
	s := Schema()
	want := map[string]int{ // Table IVa attribute counts
		"OBS": 5, "PBS": 18, "PBZ": 20, "PT": 4, "PR": 7, "SPT": 4,
	}
	for name, attrs := range want {
		rs := s.Relation(name)
		if rs == nil {
			t.Fatalf("missing relation %s", name)
		}
		if rs.Arity() != attrs {
			t.Errorf("%s has %d attributes, want %d", name, rs.Arity(), attrs)
		}
		if rs.HasKey() {
			t.Errorf("%s must not declare a key (constraints are DCs)", name)
		}
	}
}

func TestConstraints(t *testing.T) {
	s := Schema()
	dcs, err := Constraints(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 3 { // 2 FDs + 1 DC
		t.Fatalf("constraints = %d, want 3", len(dcs))
	}
	for _, dc := range dcs {
		if err := dc.Validate(s); err != nil {
			t.Errorf("%s: %v", dc.Name, err)
		}
	}
}

func TestGenerateViolationRates(t *testing.T) {
	in, err := Generate(0.25, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := in.Schema()
	dcs, err := Constraints(s)
	if err != nil {
		t.Fatal(err)
	}
	e := cq.NewEvaluator(in)
	violations := constraints.MinimalViolations(e, dcs)
	if len(violations) == 0 {
		t.Fatal("no violations generated")
	}
	// Count violating facts per relation.
	perRel := map[string]int{}
	seen := map[db.FactID]bool{}
	singletons := 0
	for _, v := range violations {
		if len(v) == 1 {
			singletons++
		}
		for _, f := range v {
			if !seen[f] {
				seen[f] = true
				perRel[in.Schema().RelationByID(in.RelOf(f)).Canon()]++
			}
		}
	}
	if singletons == 0 {
		t.Error("expected webAddr DC violations")
	}
	obsPct := 100 * float64(perRel["obs"]) / float64(in.RelSize("OBS"))
	if obsPct < 1.2 || obsPct > 4.5 {
		t.Errorf("OBS violation rate = %.2f%%, want ≈2.58%%", obsPct)
	}
	pbsPct := 100 * float64(perRel["pbs"]) / float64(in.RelSize("PBS"))
	if pbsPct < 0.8 || pbsPct > 3.2 { // FD 1.5% + DC 0.15%
		t.Errorf("PBS violation rate = %.2f%%, want ≈1.65%%", pbsPct)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(0.02, 3)
	b, _ := Generate(0.02, 3)
	if a.NumFacts() != b.NumFacts() {
		t.Fatal("sizes differ")
	}
	for i := 0; i < a.NumFacts(); i++ {
		if !tupleOf(a, db.FactID(i)).Equal(tupleOf(b, db.FactID(i))) {
			t.Fatalf("fact %d differs", i)
		}
	}
}

func TestCardinalityProportions(t *testing.T) {
	in, _ := Generate(1.0, 1)
	// Within a few percent of Table IVa.
	want := map[string]int{
		"OBS": 3872, "PBS": 21002, "PBZ": 4748, "PT": 2434, "PR": 29148, "SPT": 70,
	}
	for rel, n := range want {
		got := in.RelSize(rel)
		if got < n*95/100 || got > n*105/100 {
			t.Errorf("%s = %d, want ≈%d", rel, got, n)
		}
	}
}

func TestAllQueriesTranslateAndRun(t *testing.T) {
	in, err := Generate(0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := cq.NewEvaluator(in)
	scalarSeen, groupedSeen := 0, 0
	for _, q := range Queries() {
		tr, err := q.Translate()
		if err != nil {
			t.Errorf("%s: %v", q.Name, err)
			continue
		}
		res, err := cq.EvalAgg(e, tr.Aggs[0].Query)
		if err != nil {
			t.Errorf("%s: eval: %v", q.Name, err)
			continue
		}
		if q.Grouped {
			groupedSeen++
			if len(res) == 0 {
				t.Errorf("%s: no groups", q.Name)
			}
		} else {
			scalarSeen++
			if len(res) != 1 {
				t.Errorf("%s: scalar returned %d rows", q.Name, len(res))
			}
			if res[0].Value.AsInt() == 0 && !strings.Contains(q.Name, "Q3m") {
				t.Errorf("%s: zero result; check generator domains", q.Name)
			}
		}
	}
	if scalarSeen != 6 || groupedSeen != 6 {
		t.Errorf("scalar/grouped split = %d/%d, want 6/6", scalarSeen, groupedSeen)
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
