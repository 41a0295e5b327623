package constraints_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/medigap"
)

// TestMedigapViolations: on the Medigap data versions 100–102 at scale
// 0.5 (the instances a denial-constraint refresh serves) the FD
// partitions give the generic self-join's violation list byte for
// byte. The two FDs are two (relation, left-hand side) partitions and
// the webAddr DC a scan, so the partition path builds exactly those two
// partitions and no join partition: a deterministic work gate on the
// refresh window.
func TestMedigapViolations(t *testing.T) {
	schema := medigap.Schema()
	dcs, err := medigap.Constraints(schema)
	if err != nil {
		t.Fatal(err)
	}
	if parts, generic := constraints.FastPathInfo(schema, dcs); parts != 2 || generic != 1 {
		t.Fatalf("FastPathInfo = %d partitions, %d generic DCs; want 2 and 1", parts, generic)
	}
	obs, _ := schema.RelID("OBS")
	pbs, _ := schema.RelID("PBS")
	for seed := uint64(100); seed <= 102; seed++ {
		in, err := medigap.Generate(0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		fast := constraints.MinimalViolations(cq.NewEvaluator(in), dcs)
		if n := in.NumPartitions(); n != 2 {
			t.Errorf("version %d: MinimalViolations built %d partitions, want 2", seed, n)
		}
		// The two are the left-hand sides: asking for them builds nothing.
		in.Partition(obs, []int{0})
		in.Partition(pbs, []int{3, 4, 5})
		if n := in.NumPartitions(); n != 2 {
			t.Errorf("version %d: the FD left-hand sides were not the partitions built (%d after asking)", seed, n)
		}
		slow := constraints.MinimalViolationsGeneric(cq.NewEvaluator(in), dcs)
		if len(fast) == 0 || fmt.Sprint(fast) != fmt.Sprint(slow) {
			t.Fatalf("version %d: %d violations on the partitions, %d generic", seed, len(fast), len(slow))
		}
		t.Logf("version %d: %d facts, %d violations", seed, in.NumFacts(), len(fast))
	}
}

// BenchmarkMinimalViolations: the violation step of a Medigap refresh
// (scale 0.5, version 100) on a freshly opened snapshot, as each
// refresh's engine runs it — FD partitions plus the generic scan,
// against the all-generic self-joins. Partitions are memoised on the
// instance, so each iteration opens its own (untimed).
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
	path := filepath.Join(b.TempDir(), "medigap.snapshot")
	if err := db.SaveSnapshot(in, path); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		run  func(*cq.Evaluator, []constraints.DC) []constraints.Violation
	}{{"partition", constraints.MinimalViolations}, {"generic", constraints.MinimalViolationsGeneric}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				snap, err := db.OpenSnapshot(path)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				bc.run(cq.NewEvaluator(snap.Instance()), dcs)
				b.StopTimer()
				snap.Close()
				b.StartTimer()
			}
		})
	}
}
