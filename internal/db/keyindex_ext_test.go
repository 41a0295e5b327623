package db_test

import (
	"path/filepath"
	"testing"

	"aggcavsat/internal/db"
	"aggcavsat/internal/tpch"
)

// keyIndexAllocBound caps the allocations of one cold key index build
// over the sf 0.01 TPC-H demo instance (93,948 facts, 2,078 violating
// groups). The build allocates a fixed handful of flat arrays, so the
// count must not grow with the number of groups.
const keyIndexAllocBound = 1000

func demoInstance(tb testing.TB) *db.Instance {
	in, err := tpch.DemoInstance(0.01, 10, 2022)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestKeyIndexBuildAllocs is the allocation gate of the cold build.
func TestKeyIndexBuildAllocs(t *testing.T) {
	in := demoInstance(t)
	allocs := testing.AllocsPerRun(3, func() { in.BuildKeyIndex() })
	x := in.BuildKeyIndex()
	t.Logf("%d facts, %d violating groups, %.0f allocs per cold build", in.NumFacts(), x.NumGroups(), allocs)
	if allocs > keyIndexAllocBound {
		t.Errorf("cold key index build: %.0f allocs, bound %d", allocs, keyIndexAllocBound)
	}
}

// BenchmarkKeyIndexBuild: a cold key index build over the heap-built
// sf 0.01 demo instance.
func BenchmarkKeyIndexBuild(b *testing.B) {
	in := demoInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.BuildKeyIndex()
	}
}

// BenchmarkOpenSnapshotAdopt: open the sf 0.01 demo snapshot, adopt
// and validate its stored key index, and close it — what a data
// refresh pays before its first query.
func BenchmarkOpenSnapshotAdopt(b *testing.B) {
	path := filepath.Join(b.TempDir(), "demo.snapshot")
	if err := db.SaveSnapshot(demoInstance(b), path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := db.OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		snap.Instance().KeyEqualGroups()
		snap.Close()
	}
}
