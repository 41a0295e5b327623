package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/maxsat"
)

// keyConflictInstance builds R(k,g,v) with one violated key per group:
// no consistent-part shortcut applies, every range needs the solver.
func keyConflictInstance(t *testing.T) *db.Instance {
	t.Helper()
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "g", Kind: db.KindString},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	in := db.NewInstance(s)
	in.MustInsert("R", db.Int(1), db.Str("a"), db.Int(1))
	in.MustInsert("R", db.Int(1), db.Str("a"), db.Int(2))
	in.MustInsert("R", db.Int(2), db.Str("b"), db.Int(3))
	in.MustInsert("R", db.Int(2), db.Str("b"), db.Int(5))
	return in
}

func sameReports(t *testing.T, label string, seq, par *Report) {
	t.Helper()
	if len(seq.Answers) != len(par.Answers) {
		t.Fatalf("%s: sequential %d answers, parallel %d", label, len(seq.Answers), len(par.Answers))
	}
	for i := range seq.Answers {
		a, b := seq.Answers[i], par.Answers[i]
		if a.Key.Compare(b.Key) != 0 {
			t.Fatalf("%s: answer %d key %v vs %v", label, i, a.Key, b.Key)
		}
		if !valuesMatch(a.GLB, b.GLB) || !valuesMatch(a.LUB, b.LUB) {
			t.Fatalf("%s: answer %d range [%v,%v] vs [%v,%v]", label, i, a.GLB, a.LUB, b.GLB, b.LUB)
		}
		if a.EmptyPossible != b.EmptyPossible || a.FromConsistentPart != b.FromConsistentPart {
			t.Fatalf("%s: answer %d flags differ: %+v vs %+v", label, i, a.Range, b.Range)
		}
	}
}

// TestParallelMatchesSequential is the determinism contract of the
// worker pool: for every operator, scalar and grouped, the parallel
// engine must return byte-identical answers in the same order as the
// sequential one.
func TestParallelMatchesSequential(t *testing.T) {
	ops := []cq.AggOp{cq.CountStar, cq.Sum, cq.CountDistinct, cq.Min}
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for seed := 1; seed <= trials; seed++ {
		r := rng(seed*48271 + 11)
		in := randomInstance(&r)
		seqEng, err := New(in, Options{Mode: KeysMode, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		parEng, err := New(in, Options{Mode: KeysMode, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			for _, grouped := range []bool{false, true} {
				for qi, q := range []cq.AggQuery{singleRelQuery(op, grouped), joinQuery(op, grouped)} {
					label := fmt.Sprintf("seed %d op %v grouped %v query %d", seed, op, grouped, qi)
					seq, err := seqEng.RangeAnswers(q)
					if err != nil {
						t.Fatalf("%s: sequential: %v", label, err)
					}
					par, err := parEng.RangeAnswers(q)
					if err != nil {
						t.Fatalf("%s: parallel: %v", label, err)
					}
					sameReports(t, label, seq, par)
				}
			}
		}
	}
}

// TestParallelConsistentAnswersMatch covers the sharded candidate
// checks of Algorithm 2's SAT path.
func TestParallelConsistentAnswersMatch(t *testing.T) {
	u := cq.Single(cq.CQ{
		Head: []string{"g"},
		Atoms: []cq.Atom{
			{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}},
			{Rel: "S", Args: []cq.Term{cq.V("k"), cq.V("w")}},
		},
	})
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for seed := 1; seed <= trials; seed++ {
		r := rng(seed*69621 + 3)
		in := randomInstance(&r)
		seqEng, _ := New(in, Options{Mode: KeysMode, Parallelism: 1})
		parEng, _ := New(in, Options{Mode: KeysMode, Parallelism: 4})
		seq, _, err := seqEng.ConsistentAnswers(u)
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		par, _, err := parEng.ConsistentAnswers(u)
		if err != nil {
			t.Fatalf("seed %d: parallel: %v", seed, err)
		}
		if len(seq) != len(par) {
			t.Fatalf("seed %d: %d vs %d consistent answers", seed, len(seq), len(par))
		}
		for i := range seq {
			if seq[i].Compare(par[i]) != 0 {
				t.Fatalf("seed %d: answer %d differs: %v vs %v", seed, i, seq[i], par[i])
			}
		}
	}
}

func TestPreCanceledContextReturnsErrTimeout(t *testing.T) {
	in := keyConflictInstance(t)
	for _, workers := range []int{1, 4} {
		eng, err := New(in, Options{Mode: KeysMode, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = eng.RangeAnswersContext(ctx, singleRelQuery(cq.Sum, true))
		if err == nil {
			t.Fatalf("workers=%d: canceled context should error", workers)
		}
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("workers=%d: error %v should wrap ErrTimeout", workers, err)
		}
		if errors.Is(err, ErrBudget) {
			t.Errorf("workers=%d: cancellation must not look like a budget error", workers)
		}
	}
}

func TestTimeoutOptionReturnsErrTimeout(t *testing.T) {
	in := keyConflictInstance(t)
	eng, err := New(in, Options{Mode: KeysMode, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = eng.RangeAnswers(singleRelQuery(cq.Sum, true))
	if err == nil {
		t.Fatal("nanosecond timeout should error")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("error %v should wrap ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("timeout took %v to surface", elapsed)
	}
}

// TestCancelMidQuery cancels from inside the first group's MaxSAT solve
// (the progress callback runs synchronously in the solver); the
// remaining group is then refused by the pool's context check, so the
// call must surface ErrTimeout rather than a partial report.
func TestCancelMidQuery(t *testing.T) {
	// Without elimination Example IV.2's component goes to MaxSAT, whose
	// progress callback can cancel it.
	in := bank()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng, err := New(in, Options{
		Mode:        KeysMode,
		Parallelism: 1,
		MaxSAT: maxsat.Options{
			ProgressEvery: 1,
			Progress:      func(maxsat.ProgressInfo) { cancel() },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = noElimination(eng).RangeAnswersContext(ctx, coupledSumQuery())
	if err == nil {
		t.Fatal("mid-solve cancellation should error")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("error %v should wrap ErrTimeout", err)
	}
}

func TestConsistentAnswersTimeout(t *testing.T) {
	in := keyConflictInstance(t)
	eng, err := New(in, Options{Mode: KeysMode, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	u := cq.Single(cq.CQ{
		Head:  []string{"g"},
		Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}}},
	})
	_, _, err = eng.ConsistentAnswersContext(context.Background(), u)
	if err == nil {
		t.Skip("instance solved before the deadline check; nothing to assert")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("error %v should wrap ErrTimeout", err)
	}
}

// TestDedupFactSetsRuns: a group is sorted by fact set, so each run of
// equal fact sets weighs 1 once, at its first witness, whatever the
// witnesses' answers.
func TestDedupFactSetsRuns(t *testing.T) {
	ws := []cq.Witness{
		{Facts: []db.FactID{1, 2}, Answer: db.Tuple{db.Int(1)}},
		{Facts: []db.FactID{1, 2}, Answer: db.Tuple{db.Int(2)}},
		{Facts: []db.FactID{2, 3}, Answer: db.Tuple{db.Int(1)}},
		{Facts: []db.FactID{2, 3}, Answer: db.Tuple{db.Float(1)}},
		{Facts: []db.FactID{4}},
	}
	out := dedupFactSets(ws)
	var got []int64
	for _, w := range out.wt {
		got = append(got, w.weight)
	}
	if want := []int64{1, 0, 1, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("dedup weights %v, want %v", got, want)
	}
}
