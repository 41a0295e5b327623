package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps the experiment tests fast.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.SFSmall = 0.0003
	cfg.SFMedium = 0.0005
	cfg.SFLarge = 0.001
	cfg.MedigapScale = 0.05
	return cfg
}

func TestFigure1Shape(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 scalar queries", len(table.Rows))
	}
	// Q5' and Q19' must be outside ConQuer's class, everything else in.
	outside := map[string]bool{"Q5'": true, "Q19'": true}
	for _, row := range table.Rows {
		isOut := row[5] == "not in C_aggforest"
		if isOut != outside[row[0]] {
			t.Errorf("%s: conquer cell %q", row[0], row[5])
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 grouped queries", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[0] == "Q5" && row[5] != "not in C_aggforest" {
			t.Errorf("Q5 should be outside C_aggforest, got %q", row[5])
		}
	}
}

func TestTableIIShape(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.TableII()
	if err != nil {
		t.Fatal(err)
	}
	// 8 relations + overall + max group.
	if len(table.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[0] == "region" {
			for _, cell := range row[1:] {
				if !strings.HasPrefix(cell, "0.00") {
					t.Errorf("region must stay consistent: %v", row)
				}
			}
		}
	}
}

func TestTableIIIabShape(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.TableIIIab()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want Q1'/Q6'/Q14'", len(table.Rows))
	}
	// CNF sizes must grow with inconsistency (first vs last column).
	for _, row := range table.Rows {
		first := parseVars(t, row[1])
		last := parseVars(t, row[4])
		if last <= first {
			t.Errorf("%s: vars %d at 5%% vs %d at 35%% — expected growth", row[0], first, last)
		}
	}
}

func parseVars(t *testing.T, cell string) int {
	t.Helper()
	var vars, clauses int
	if _, err := sscanf(cell, &vars, &clauses); err != nil {
		t.Fatalf("bad CNF cell %q: %v", cell, err)
	}
	return vars
}

func sscanf(cell string, vars, clauses *int) (int, error) {
	parts := strings.Split(cell, "|")
	if len(parts) != 2 {
		return 0, strconvError(cell)
	}
	v, err := atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, err
	}
	c, err := atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, err
	}
	*vars, *clauses = v, c
	return 2, nil
}

func atoi(s string) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, strconvError(s)
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}

type strconvError string

func (e strconvError) Error() string { return "cannot parse " + string(e) }

func TestFigure9Shape(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 Medigap queries", len(table.Rows))
	}
	// The constraint (near-violation) column must be equal across all
	// queries — the paper's "this part of the encoding time is equal for
	// all queries" observation (the context is computed once).
	first := table.Rows[0][1]
	for _, row := range table.Rows[1:] {
		if row[1] != first {
			t.Errorf("constraint time differs: %s vs %s", row[1], first)
		}
	}
}

func TestAblationShape(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 || len(table.Header) != 4 {
		t.Fatalf("table shape: %d rows, %d cols", len(table.Rows), len(table.Header))
	}
}

func TestExperimentDispatch(t *testing.T) {
	r := NewRunner(tinyConfig())
	var buf bytes.Buffer
	if err := r.Experiment("table4", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Medigap") {
		t.Error("table4 output missing")
	}
	if err := r.Experiment("nope", &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(Names()) != 16 {
		t.Errorf("Names() = %d entries", len(Names()))
	}
}

func TestTablePrint(t *testing.T) {
	table := &Table{
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
	}
	var buf bytes.Buffer
	table.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "### t") || !strings.Contains(out, "xxx  y") {
		t.Errorf("output:\n%s", out)
	}
}

func TestFigure2PDBenchShape(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(table.Rows))
	}
	// ConQuer columns filled for in-class queries on instances 1 and 4.
	for _, row := range table.Rows {
		if row[0] == "Q6'" && (row[5] == "" || row[6] == "") {
			t.Errorf("Q6' missing ConQuer cells: %v", row)
		}
	}
}

func TestFigure3SweepShape(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 9 || len(table.Header) != 5 {
		t.Fatalf("shape: %d rows × %d cols", len(table.Rows), len(table.Header))
	}
}

func TestFigure7ReportsSATCalls(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	// query + 4 times + 4 call counts.
	if len(table.Header) != 9 {
		t.Fatalf("header = %v", table.Header)
	}
	// SAT calls must not decrease drastically as inconsistency grows for
	// at least one query (sanity on the paper's log-scale plot).
	grew := false
	for _, row := range table.Rows {
		if row[5] < row[8] { // string compare is fine for same-width digits; just sanity
			grew = true
		}
	}
	_ = grew // shape check only; counts are workload-dependent at tiny scale
}

func TestFigure4And8SizeSweeps(t *testing.T) {
	r := NewRunner(tinyConfig())
	t4, err := r.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 9 || len(t4.Header) != 4 {
		t.Fatalf("fig4 shape: %d×%d", len(t4.Rows), len(t4.Header))
	}
	t8, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Rows) != 6 || len(t8.Header) != 7 {
		t.Fatalf("fig8 shape: %d×%d", len(t8.Rows), len(t8.Header))
	}
}

func TestTableIIIcdGrowsWithSize(t *testing.T) {
	r := NewRunner(tinyConfig())
	table, err := r.TableIIIcd()
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	for _, row := range table.Rows {
		small := parseVars(t, row[1])
		large := parseVars(t, row[3])
		// A zero-size formula means the consistent-part shortcut fired
		// (legitimate for selective queries at tiny scales).
		if small > 0 && large > 0 && large > small {
			grew = true
		}
	}
	if !grew {
		t.Error("no query's CNF grew with database size")
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	cfg := tinyConfig()
	r := NewRunner(cfg)
	var buf bytes.Buffer
	if err := r.All(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range Names() {
		if !strings.Contains(out, "("+name+" finished in") {
			t.Errorf("experiment %s missing from All output", name)
		}
	}
}
