package constraints_test

import (
	"fmt"
	"testing"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/medigap"
)

// TestMedigapViolations: on the Medigap data versions 100–102 at scale
// 0.5 (the instances a denial-constraint refresh serves) the FD
// partitions give the generic self-join's violation list byte for
// byte. The two FDs are two (relation, left-hand side) partitions and
// the webAddr DC a scan, so the partition path builds no evaluator
// hash index: a deterministic work gate on the refresh window.
func TestMedigapViolations(t *testing.T) {
	schema := medigap.Schema()
	dcs, err := medigap.Constraints(schema)
	if err != nil {
		t.Fatal(err)
	}
	if parts, generic := constraints.FastPathInfo(schema, dcs); parts != 2 || generic != 1 {
		t.Fatalf("FastPathInfo = %d partitions, %d generic DCs; want 2 and 1", parts, generic)
	}
	for seed := uint64(100); seed <= 102; seed++ {
		in, err := medigap.Generate(0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		e := cq.NewEvaluator(in)
		fast := constraints.MinimalViolations(e, dcs)
		if n := e.NumIndexes(); n != 0 {
			t.Errorf("version %d: MinimalViolations built %d evaluator hash indexes, want 0", seed, n)
		}
		slow := constraints.MinimalViolationsGeneric(cq.NewEvaluator(in), dcs)
		if len(fast) == 0 || fmt.Sprint(fast) != fmt.Sprint(slow) {
			t.Fatalf("version %d: %d violations on the partitions, %d generic", seed, len(fast), len(slow))
		}
		t.Logf("version %d: %d facts, %d violations", seed, in.NumFacts(), len(fast))
	}
}

// BenchmarkMinimalViolations: the violation step of a Medigap refresh
// (scale 0.5, version 100) on a fresh evaluator, as each refresh's
// engine runs it — FD partitions plus the generic scan, against the
// all-generic self-joins.
func BenchmarkMinimalViolations(b *testing.B) {
	schema := medigap.Schema()
	dcs, err := medigap.Constraints(schema)
	if err != nil {
		b.Fatal(err)
	}
	in, err := medigap.Generate(0.5, 100)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		run  func(*cq.Evaluator, []constraints.DC) []constraints.Violation
	}{{"partition", constraints.MinimalViolations}, {"generic", constraints.MinimalViolationsGeneric}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.run(cq.NewEvaluator(in), dcs)
			}
		})
	}
}
