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
// the solver moves its bounds before converging.
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
	var reports []ProgressInfo
	res, err := Solve(progressFormula(), Options{
		ProgressEvery: 1,
		Progress:      func(p ProgressInfo) { reports = append(reports, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Fatal("unsatisfiable")
	}
	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	opt := res.FalsifiedWeight
	var prevLB, prevUB int64 = -1, -1
	sawMilestone := false
	for i, p := range reports {
		if p.Algorithm != AlgRC2 {
			t.Fatalf("report %d labeled %v", i, p.Algorithm)
		}
		switch p.Phase {
		case "search":
		case "model", "core", "stratum":
			sawMilestone = true
		default:
			t.Fatalf("report %d has unknown phase %q", i, p.Phase)
		}
		// Any published bound must bracket the optimum falsified
		// weight, and the bracket only tightens.
		if p.LowerBound >= 0 {
			if p.LowerBound > opt {
				t.Fatalf("report %d lb %d > optimum %d", i, p.LowerBound, opt)
			}
			if p.LowerBound < prevLB {
				t.Fatalf("report %d lb regressed %d -> %d", i, prevLB, p.LowerBound)
			}
			prevLB = p.LowerBound
		}
		if p.UpperBound >= 0 {
			if p.UpperBound < opt {
				t.Fatalf("report %d ub %d < optimum %d", i, p.UpperBound, opt)
			}
			if prevUB >= 0 && p.UpperBound > prevUB {
				t.Fatalf("report %d ub regressed %d -> %d", i, prevUB, p.UpperBound)
			}
			prevUB = p.UpperBound
		}
	}
	if !sawMilestone {
		t.Error("only periodic reports, no milestone events")
	}
	if prevUB != opt {
		t.Errorf("final ub %d, want optimum %d", prevUB, opt)
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
	if alg != "rc2" {
		t.Errorf("maxsat.solve alg = %q, want rc2", alg)
	}
	if names["maxsat.solve"] != 1 {
		t.Fatalf("maxsat.solve spans = %d, want 1", names["maxsat.solve"])
	}
	if int64(names["sat.solve"]) != res.SATCalls {
		t.Fatalf("sat.solve spans = %d, SATCalls = %d", names["sat.solve"], res.SATCalls)
	}
}

// spanBracket returns the lb/ub attributes of the trace's one
// maxsat.solve span; ok is false when the span carries neither.
func spanBracket(t *testing.T, tr *obsv.Tracer) (lb, ub int64, ok bool) {
	t.Helper()
	n := 0
	for _, sp := range tr.Spans() {
		if sp.Name != "maxsat.solve" {
			continue
		}
		n++
		for _, a := range sp.Attrs {
			switch a.Key {
			case "lb":
				lb, ok = a.Int, true
			case "ub":
				ub, ok = a.Int, true
			}
		}
	}
	if n != 1 {
		t.Fatalf("maxsat.solve spans = %d, want 1", n)
	}
	return lb, ub, ok
}

func TestSolveSpanCarriesLastBracket(t *testing.T) {
	// A traced solve ends with the bracket the last progress report
	// carried on its maxsat.solve span: the optimum's falsified weight
	// as ub on a finished solve, and whatever was known on an error exit.
	t.Run("optimum", func(t *testing.T) {
		tr := obsv.NewTracer()
		var last ProgressInfo
		res, err := SolveContext(obsv.WithTracer(context.Background(), tr), progressFormula(), Options{
			ProgressEvery: 1,
			Progress:      func(p ProgressInfo) { last = p },
		})
		if err != nil {
			t.Fatal(err)
		}
		lb, ub, ok := spanBracket(t, tr)
		if !ok {
			t.Fatal("maxsat.solve span carries no lb/ub")
		}
		if lb != last.LowerBound || ub != last.UpperBound {
			t.Errorf("span bracket [%d, %d], last progress report [%d, %d]", lb, ub, last.LowerBound, last.UpperBound)
		}
		if ub != res.FalsifiedWeight {
			t.Errorf("span ub %d, want the optimum falsified weight %d", ub, res.FalsifiedWeight)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		tr := obsv.NewTracer()
		ctx, cancel := context.WithCancel(obsv.WithTracer(context.Background(), tr))
		defer cancel()
		var last ProgressInfo
		_, err := SolveContext(ctx, hardPigeonhole(10), Options{
			ProgressEvery: 1,
			Progress:      func(p ProgressInfo) { last = p; cancel() },
		})
		if err == nil {
			t.Fatal("canceled solve should error")
		}
		lb, ub, ok := spanBracket(t, tr)
		if !ok {
			t.Fatal("maxsat.solve span of a failed solve carries no lb/ub")
		}
		if lb != last.LowerBound || ub != last.UpperBound {
			t.Errorf("span bracket [%d, %d], last progress report [%d, %d]", lb, ub, last.LowerBound, last.UpperBound)
		}
	})
	t.Run("traced without progress", func(t *testing.T) {
		tr := obsv.NewTracer()
		res, err := SolveContext(obsv.WithTracer(context.Background(), tr), progressFormula(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ub, ok := spanBracket(t, tr); !ok || ub != res.FalsifiedWeight {
			t.Errorf("span ub = %d (present %v), want %d", ub, ok, res.FalsifiedWeight)
		}
	})
}

func TestNoTrackerWithoutConsumer(t *testing.T) {
	// Without a span and without a Progress callback nothing reads the
	// bracket, so no tracker is built.
	if tr := newTracker(Options{}, nil); tr != nil {
		t.Fatalf("newTracker without span or Progress = %+v, want nil", tr)
	}
	if tr := newTracker(Options{Progress: func(ProgressInfo) {}}, nil); tr == nil {
		t.Fatal("newTracker with Progress = nil")
	}
	_, sp := obsv.StartSpan(obsv.WithTracer(context.Background(), obsv.NewTracer()), "maxsat.solve")
	if tr := newTracker(Options{}, sp); tr == nil {
		t.Fatal("newTracker with a span = nil")
	}
}
