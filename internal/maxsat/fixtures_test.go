package maxsat

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"aggcavsat/internal/cnf"
)

// readFixture parses one WCNF fixture of testdata (see its README).
func readFixture(t *testing.T, name string) *cnf.Formula {
	t.Helper()
	fh, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	f, err := cnf.ReadWCNF(fh)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return f
}

// TestHardFixtures solves the committed hard components where MaxHS
// answers quickly: both directions of the PDBench-4 Q5′ component and
// the glb direction of the DBGen Q10′ one, whose lub direction
// exhausts the hitting-set budget. The falsified weights equal group
// elimination's (internal/core TestHardCases).
func TestHardFixtures(t *testing.T) {
	for _, tc := range []struct {
		name          string
		vars, clauses int
		minF, maxF    int64
		solveLUB      bool
	}{
		{"dbgen-sf0.01-q10p.wcnf", 727, 1786, 263358665, 815972972, false},
		{"pdbench4-sf0.01-q5p.wcnf", 1971, 21171, 0, 511094426, true},
	} {
		f := readFixture(t, tc.name)
		if st := f.Stats(); st.Vars != tc.vars || st.Clauses != tc.clauses {
			t.Fatalf("%s: %d vars / %d clauses, want %d / %d", tc.name, st.Vars, st.Clauses, tc.vars, tc.clauses)
		}
		total := f.TotalSoftWeight()
		res, err := SolveContext(context.Background(), f, Options{})
		if err != nil {
			t.Fatalf("%s glb: %v", tc.name, err)
		}
		if got := total - res.Optimum; got != tc.minF {
			t.Errorf("%s glb: falsified %d, want %d", tc.name, got, tc.minF)
		}
		if !tc.solveLUB {
			continue
		}
		if res, err = SolveContext(context.Background(), f.NegateSoft(), Options{}); err != nil {
			t.Fatalf("%s lub: %v", tc.name, err)
		}
		if res.Optimum != tc.maxF {
			t.Errorf("%s lub: falsified %d, want %d", tc.name, res.Optimum, tc.maxF)
		}
	}
}
