package aggcavsat_test

// Benchmarks regenerating the paper's evaluation artifacts: one
// benchmark per figure and table of Section VI (see DESIGN.md's
// per-experiment index). `go test -bench=. -benchmem` runs them all on a
// reduced calibration so the suite completes in minutes; use
// cmd/aggbench for the full tables.

import (
	"io"
	"testing"

	"aggcavsat/internal/bench"
	"aggcavsat/internal/core"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
	"aggcavsat/internal/medigap"
	"aggcavsat/internal/tpch"
)

// benchConfig is a lighter calibration than aggbench's default, sized
// for repeated b.N iterations.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.SFSmall = 0.0005
	cfg.SFMedium = 0.001
	cfg.SFLarge = 0.002
	cfg.MedigapScale = 0.1
	return cfg
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	r := bench.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Experiment(name, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1ScalarVsConQuer(b *testing.B) { runExperiment(b, "fig1") }
func BenchmarkFigure2PDBenchScalar(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkTable2PDBenchProfiles(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkFigure3InconsistencySweep(b *testing.B) {
	runExperiment(b, "fig3")
}
func BenchmarkTable3abCNFSizes(b *testing.B)        { runExperiment(b, "table3ab") }
func BenchmarkFigure4SizeSweep(b *testing.B)        { runExperiment(b, "fig4") }
func BenchmarkTable3cdCNFSizes(b *testing.B)        { runExperiment(b, "table3cd") }
func BenchmarkFigure5GroupedVsConQuer(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkFigure6PDBenchGrouped(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFigure7GroupedInconsistency(b *testing.B) {
	runExperiment(b, "fig7")
}
func BenchmarkFigure8GroupedSizes(b *testing.B) { runExperiment(b, "fig8") }
func BenchmarkTable4MedigapProfile(b *testing.B) {
	runExperiment(b, "table4")
}
func BenchmarkFigure9Medigap(b *testing.B) { runExperiment(b, "fig9") }

// Finer-grained benchmarks of the pipeline stages on a fixed instance.

func benchInstance(b *testing.B) *db.Instance {
	b.Helper()
	base := tpch.Generate(0.0005, 7)
	in, err := tpch.Inject(base, tpch.InjectOptions{Percent: 10, MinGroup: 2, MaxGroup: 7, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkScalarSumQuery measures one full scalar SUM range computation
// (Q6'-shaped: witnesses + Reduction IV.1 + two WPMaxSAT solves).
func BenchmarkScalarSumQuery(b *testing.B) {
	in := benchInstance(b)
	q, err := tpch.QueryByName("Q6'")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := q.Translate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.New(in, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RangeAnswers(tr.Aggs[0].Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupedCountQuery measures a grouped COUNT(*) range
// computation (Q12-shaped: Algorithm 2, one consistency SAT pass plus
// two WPMaxSAT solves per consistent group).
func BenchmarkGroupedCountQuery(b *testing.B) {
	in := benchInstance(b)
	q, err := tpch.QueryByName("Q12")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := q.Translate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.New(in, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RangeAnswers(tr.Aggs[0].Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReductionV1Medigap measures the denial-constraint pipeline:
// minimal violations, near-violations, and a grouped query.
func BenchmarkReductionV1Medigap(b *testing.B) {
	in, err := medigap.Generate(0.1, 3)
	if err != nil {
		b.Fatal(err)
	}
	dcs, err := medigap.Constraints(in.Schema())
	if err != nil {
		b.Fatal(err)
	}
	q := medigap.Queries()[8] // Q9m: grouped over the inconsistent PBS
	tr, err := q.Translate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.New(in, core.Options{Mode: core.DCMode, DCs: dcs})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RangeAnswers(tr.Aggs[0].Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverRC2 times the engine's WPMaxSAT path (the built-in RC2
// solver) end to end on one scalar query.
func BenchmarkSolverRC2(b *testing.B) {
	in := benchInstance(b)
	q, err := tpch.QueryByName("Q12'")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := q.Translate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.New(in, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RangeAnswers(tr.Aggs[0].Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExhaustiveBaseline sizes the brute-force alternative the SAT
// pipeline replaces (tiny instance: repair enumeration is exponential).
func BenchmarkExhaustiveBaseline(b *testing.B) {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	in := db.NewInstance(s)
	for k := 0; k < 12; k++ {
		in.MustInsert("R", db.Int(int64(k)), db.Int(int64(k)))
		in.MustInsert("R", db.Int(int64(k)), db.Int(int64(k+100)))
	}
	q := cq.AggQuery{
		Op:     cq.Sum,
		AggVar: "v",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("v")}}},
		}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exhaustive.RangeAnswers(in, q, exhaustive.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
