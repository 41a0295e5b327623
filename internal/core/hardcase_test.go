package core

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/pdbench"
	"aggcavsat/internal/planner"
	"aggcavsat/internal/tpch"
)

// hardCase is the largest Reduction IV.1 component of one TPC-H query's
// SAT route at sf 0.01: a component MaxHS does not answer within the
// bench budgets, committed as a WCNF fixture for the solver fallback.
type hardCase struct {
	fixture string // file name under internal/maxsat/testdata
	query   string // tpch query name
	build   func() (*db.Instance, error)
}

var (
	// Q10′ over DBGen (10 % inconsistency): width 2.
	hardQ10 = hardCase{"dbgen-sf0.01-q10p.wcnf", "Q10'", func() (*db.Instance, error) {
		return tpch.DemoInstance(0.01, 10, tpch.DemoSeed)
	}}
	// Q5′ over PDBench instance 4: 85 violating groups of up to 32 facts.
	hardQ5 = hardCase{"pdbench4-sf0.01-q5p.wcnf", "Q5'", func() (*db.Instance, error) {
		in, _, err := pdbench.Generate(0.01, 4, tpch.DemoSeed)
		return in, err
	}}
)

// hardComponent builds the case's instance and returns a keys-mode
// engine over it, the query, and the largest component of its SAT
// route with the weighted witnesses it indexes.
func hardComponent(t *testing.T, hc hardCase) (e *Engine, q cq.AggQuery, cc *constraintContext, ws weightedBag, facts []db.FactID, idx []int32) {
	t.Helper()
	in, err := hc.build()
	if err != nil {
		t.Fatal(err)
	}
	tq, err := tpch.QueryByName(hc.query)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tq.Translate()
	if err != nil {
		t.Fatal(err)
	}
	q = tr.Aggs[0].Query.BuildHead()
	if e, err = New(in, Options{Mode: KeysMode}); err != nil {
		t.Fatal(err)
	}
	ctx, rc := e.begin(context.Background(), "hard-case", hc.query, "hard-case")
	groups, err := e.witnesses(ctx, q.Underlying, true, 0, rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("%d witness groups, want 1", len(groups))
	}
	if ws, err = prepareWitnesses(q.Op, groups[0].Witnesses); err != nil {
		t.Fatal(err)
	}
	cc = e.constraintCtx(ctx, rc)
	split := splitComponents(cc, ws)
	for ci := range split.count() {
		if f, wi := split.component(ci); len(f) > len(facts) {
			facts, idx = f, wi
		}
	}
	return e, q, cc, ws, facts, idx
}

// TestHardCases answers the two hard components by group elimination:
// Q10′ on the forced SAT route equals the rewriting's answer, and
// Q5′'s component is declined one entry below its largest table and
// answered at the default budget. Each component's Reduction IV.1
// encoding must equal its committed fixture; a missing fixture is
// written (see internal/maxsat/testdata/README.md).
func TestHardCases(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two sf 0.01 instances")
	}
	t.Run("Q10'", func(t *testing.T) {
		e, q, cc, ws, facts, idx := hardComponent(t, hardQ10)
		checkFixture(t, hardQ10, cc, ws, facts, idx)
		el := eliminator{cc: cc, bag: ws, budget: elimTableBudget}
		minF, maxF, shape, ok := el.solve(facts, idx)
		if !ok || shape != (elimShape{width: 2, table: 108}) {
			t.Errorf("component: ok %v, %+v; want width 2, largest table 108", ok, shape)
		}
		// MaxHS reaches the same minimum on the fixture; its maximum (the
		// lub direction) exhausts the hitting-set budget.
		if minF != 263358665 || maxF != 815972972 {
			t.Errorf("falsified weight [%d, %d], want [263358665, 815972972]", minF, maxF)
		}
		t.Logf("component: %d facts, %d witnesses, %d violating groups of up to %d facts", len(facts), len(idx), len(el.dom), slices.Max(el.dom))
		const want = "[3176673969, 3854124475]"
		for _, mode := range []planner.Mode{planner.ModeSAT, planner.ModeRewrite} {
			e, err := New(e.Instance(), Options{Mode: KeysMode, Planner: mode})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.RangeAnswers(q)
			if err != nil {
				t.Fatalf("planner %v: %v", mode, err)
			}
			a := rep.Answers[0]
			if got := "[" + a.GLB.String() + ", " + a.LUB.String() + "]"; got != want {
				t.Errorf("planner %v: range %s, want %s", mode, got, want)
			}
			if mode == planner.ModeSAT && (rep.Stats.SATCalls != 0 || rep.Stats.ClosedFormComponents == 0) {
				t.Errorf("forced SAT route: %d SAT calls, %d eliminated components; want 0 and every one",
					rep.Stats.SATCalls, rep.Stats.ClosedFormComponents)
			}
		}
	})
	t.Run("Q5'", func(t *testing.T) {
		_, _, cc, ws, facts, idx := hardComponent(t, hardQ5)
		checkFixture(t, hardQ5, cc, ws, facts, idx)
		el := eliminator{cc: cc, bag: ws, budget: elimTableBudget}
		minF, maxF, shape, ok := el.solve(facts, idx)
		if !ok || shape != (elimShape{width: 2, table: 17576}) {
			t.Fatalf("default budget: ok %v, %+v; want width 2, largest table 17576", ok, shape)
		}
		// With the consistent part's 292435244 folded in and no negative
		// witness, the range is [292435244, 803529670].
		if minF != 0 || maxF != 511094426 {
			t.Errorf("falsified weight [%d, %d], want [0, 511094426]", minF, maxF)
		}
		t.Logf("component: %d facts, %d witnesses, %d violating groups of up to %d facts", len(facts), len(idx), len(el.dom), slices.Max(el.dom))
		el = eliminator{cc: cc, bag: ws, budget: shape.table - 1}
		if _, _, _, ok := el.solve(facts, idx); ok {
			t.Errorf("budget %d below the largest table %d: component not declined", shape.table-1, shape.table)
		}
	})
}

// checkFixture compares the component's Reduction IV.1 encoding with
// the committed WCNF fixture, writing the fixture when it is missing.
func checkFixture(t *testing.T, hc hardCase, cc *constraintContext, ws weightedBag, facts []db.FactID, idx []int32) {
	t.Helper()
	enc := newEncoder(cc, facts)
	enc.addWitnesses(ws, idx)
	var buf bytes.Buffer
	if err := enc.formula.WriteWCNF(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "maxsat", "testdata", hc.fixture)
	committed, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s was missing: written, commit it", path)
	case err != nil:
		t.Fatal(err)
	case !bytes.Equal(committed, buf.Bytes()):
		t.Errorf("%s differs from the %s component's encoding: delete it and rerun to regenerate", path, hc.query)
	}
}
