package maxsat

import (
	"context"
	"testing"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/obsv"
)

// progressFormula has optimum falsified weight 5: the hard clauses force
// exactly one of x1/x2 (falsifying soft weight 3 or 5), and the x3
// conflict pair falsifies at least weight 2 — enough structure that
// every algorithm moves its bounds before converging.
func progressFormula() *cnf.Formula {
	f := cnf.New(3)
	f.AddHard(1, 2)
	f.AddHard(-1, -2)
	f.AddSoft(3, -1)
	f.AddSoft(5, -2)
	f.AddSoft(4, 3)
	f.AddSoft(2, -3)
	return f
}

func TestProgressBoundsBracketOptimum(t *testing.T) {
	for _, alg := range algorithms() {
		var reports []ProgressInfo
		res, err := solveWith(context.Background(), alg, progressFormula(), Options{
			ProgressEvery: 1,
			Progress:      func(p ProgressInfo) { reports = append(reports, p) },
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.Satisfiable {
			t.Fatalf("%v: unsatisfiable", alg)
		}
		if len(reports) == 0 {
			t.Fatalf("%v: no progress reports", alg)
		}
		opt := res.FalsifiedWeight
		var prevLB, prevUB int64 = -1, -1
		sawMilestone := false
		for i, p := range reports {
			if p.Algorithm != alg.alg {
				t.Fatalf("%v: report %d labeled %v", alg, i, p.Algorithm)
			}
			switch p.Phase {
			case "search":
			case "model", "core", "stratum", "hitting-set":
				sawMilestone = true
			default:
				t.Fatalf("%v: report %d has unknown phase %q", alg, i, p.Phase)
			}
			// Any published bound must bracket the optimum falsified
			// weight, and the bracket only tightens.
			if p.LowerBound >= 0 {
				if p.LowerBound > opt {
					t.Fatalf("%v: report %d lb %d > optimum %d", alg, i, p.LowerBound, opt)
				}
				if p.LowerBound < prevLB {
					t.Fatalf("%v: report %d lb regressed %d -> %d", alg, i, prevLB, p.LowerBound)
				}
				prevLB = p.LowerBound
			}
			if p.UpperBound >= 0 {
				if p.UpperBound < opt {
					t.Fatalf("%v: report %d ub %d < optimum %d", alg, i, p.UpperBound, opt)
				}
				if prevUB >= 0 && p.UpperBound > prevUB {
					t.Fatalf("%v: report %d ub regressed %d -> %d", alg, i, prevUB, p.UpperBound)
				}
				prevUB = p.UpperBound
			}
		}
		if !sawMilestone {
			t.Errorf("%v: only periodic reports, no milestone events", alg)
		}
		if prevUB != opt {
			t.Errorf("%v: final ub %d, want optimum %d", alg, prevUB, opt)
		}
	}
}

func TestSolveContextRecordsSpans(t *testing.T) {
	tr := obsv.NewTracer()
	ctx := obsv.WithTracer(context.Background(), tr)
	res, err := SolveContext(ctx, progressFormula(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Fatal("unsatisfiable")
	}
	if tr.Open() != 0 {
		t.Fatalf("unbalanced trace: %d spans still open", tr.Open())
	}
	names := map[string]int{}
	alg := ""
	for _, sp := range tr.Spans() {
		names[sp.Name]++
		for _, a := range sp.Attrs {
			if sp.Name == "maxsat.solve" && a.Key == "alg" {
				alg = a.Str
			}
		}
	}
	if alg != "maxhs" {
		t.Errorf("maxsat.solve alg = %q, want maxhs", alg)
	}
	if names["maxsat.solve"] != 1 {
		t.Fatalf("maxsat.solve spans = %d, want 1", names["maxsat.solve"])
	}
	if int64(names["sat.solve"]) != res.SATCalls {
		t.Fatalf("sat.solve spans = %d, SATCalls = %d", names["sat.solve"], res.SATCalls)
	}
}
