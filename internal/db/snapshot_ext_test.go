package db_test

import (
	"runtime"
	"testing"

	"aggcavsat/internal/db"
	"aggcavsat/internal/medigap"
)

// TestSnapshotLoadAllocs is the allocation gate of a snapshot load:
// opening Medigap at scale 0.1 and at scale 0.5 (5× the facts and
// strings) allocates the same number of objects, because the load
// aliases the dictionary, its table and the key index and allocates
// only flat per-relation and per-fact arrays; and those bytes stay
// under 16 per fact (plus a fixed 64 KiB), so nothing is sized by the
// 2.5 strings per fact.
func TestSnapshotLoadAllocs(t *testing.T) {
	var allocs [2]float64
	for i, scale := range []float64{0.1, 0.5} {
		in, err := medigap.Generate(scale, 100)
		if err != nil {
			t.Fatal(err)
		}
		data, err := db.EncodeSnapshot(in)
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(5, func() {
			if _, err := db.LoadSnapshotBytes(data); err != nil {
				t.Fatal(err)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := db.LoadSnapshotBytes(data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("scale %.1f: %d facts, %d strings, %.0f allocs and %d bytes per load", scale, in.NumFacts(), in.Dict().Len(), allocs[i], bytes)
		if limit := uint64(16*in.NumFacts() + 64<<10); bytes > limit {
			t.Errorf("scale %.1f: a load allocates %d bytes, bound %d", scale, bytes, limit)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a load allocates %.0f objects at scale 0.1 and %.0f at 0.5", allocs[0], allocs[1])
	}
}
