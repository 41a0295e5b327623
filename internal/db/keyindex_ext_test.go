package db_test

import (
	"math/bits"
	"path/filepath"
	"runtime"
	"testing"

	"aggcavsat/internal/db"
	"aggcavsat/internal/medigap"
	"aggcavsat/internal/tpch"
	"aggcavsat/internal/xrand"
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

// partitionBytesPerFact bounds the bytes one partition build allocates
// per fact of the partitioned relation: the 4-byte group of each fact,
// 8-byte members, 4-byte offsets, and a table of at most four 8-byte
// slots per fact with the smaller ones it grew from or shrinks to.
const partitionBytesPerFact = 80

// TestPartitionAllocsScaleWithRelation is the allocation gate of the
// kernel: a partition of Medigap's OBS relation (scale 0.5, 1,936 of
// the instance's 30,637 facts) on orgID makes a fixed handful of
// allocations plus one per table growth, stays under
// partitionBytesPerFact per OBS fact, and allocates as much as the same
// partition in an instance that holds OBS alone.
func TestPartitionAllocsScaleWithRelation(t *testing.T) {
	full, err := medigap.Generate(0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := full.Schema().RelID("OBS")
	alone := full.Subset(func(f db.FactID) bool { return full.RelOf(f) == obs })
	m := len(full.RelFactsByID(obs))
	measure := func(in *db.Instance) (allocs float64, bytes uint64) {
		allocs = testing.AllocsPerRun(5, func() { in.BuildPartition(obs, []int{0}) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for i := 0; i < runs; i++ {
			in.BuildPartition(obs, []int{0})
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	allocs, bytes := measure(full)
	_, aloneBytes := measure(alone)
	t.Logf("OBS partition: %d facts of %d, %.0f allocs, %d bytes (%d with OBS alone)", m, full.NumFacts(), allocs, bytes, aloneBytes)
	if bound := 6 + bits.Len(uint(m)); allocs > float64(bound) {
		t.Errorf("%.0f allocs per partition build, want at most %d", allocs, bound)
	}
	if bytes > uint64(partitionBytesPerFact*m) {
		t.Errorf("%d bytes per partition build, bound %d (%d B per OBS fact)", bytes, partitionBytesPerFact*m, partitionBytesPerFact)
	}
	// An array sized by the instance would add 4 bytes or more for each
	// of the 28,701 facts of other relations; a KiB absorbs the runtime's
	// own allocations during the measurement.
	if max(bytes, aloneBytes)-min(bytes, aloneBytes) > 1<<10 {
		t.Errorf("%d bytes in the Medigap instance, %d with OBS alone: allocation depends on the other relations", bytes, aloneBytes)
	}
}

// TestPartitionManyValuesNoRelationTable: a partition on a column of
// many repeated values — 100,000 facts over 25,000 random INT values —
// doubles its table as the groups fill it and never allocates one sized
// for the relation, which a key column of the same relation does at its
// first growth. Its build must allocate clearly less than the key
// column's: a relation-sized table alone is over half of the latter.
func TestPartitionManyValuesNoRelationTable(t *testing.T) {
	const n = 100_000
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{Name: "R", Attrs: []db.Attribute{
		{Name: "k", Kind: db.KindInt}, {Name: "a", Kind: db.KindInt},
	}, Key: []int{0}})
	in := db.NewInstance(s)
	rng := xrand.New(48)
	for i := range n {
		in.MustInsert("R", db.Int(int64(i)), db.Int(int64(rng.Intn(n/4))))
	}
	rel, _ := in.Schema().RelID("R")
	bytes := func(pos int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 3
		for range runs {
			in.BuildPartition(rel, []int{pos})
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	key, random := bytes(0), bytes(1)
	t.Logf("%d facts: key column %d bytes, random column (%d groups) %d bytes per build", n, key, in.BuildPartition(rel, []int{1}).NumGroups(), random)
	if 4*random > 3*key {
		t.Errorf("random column: %d bytes per build, over 3/4 of the key column's %d: a relation-sized table was allocated", random, key)
	}
}

// BenchmarkPartition: the kernel alone, a cold partition of the sf 0.01
// demo instance's lineitem (65,082 facts) on l_orderkey, a join column
// of 14,962 values.
func BenchmarkPartition(b *testing.B) {
	in := demoInstance(b)
	rel, _ := in.Schema().RelID("lineitem")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.BuildPartition(rel, []int{0})
	}
}
