package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"aggcavsat"
	"aggcavsat/internal/db"
	"aggcavsat/internal/medigap"
)

// TestReattachHeapFlat re-attaches a denial-constraint tenant to 64
// freshly opened Medigap snapshots, answering one statement per version
// so each engine builds its violations, and checks that the live heap
// after a GC stays flat: derived state (violations, near-violation
// index, plans, hash indexes) must die with the replaced instance, so
// nothing may keep old versions reachable.
func TestReattachHeapFlat(t *testing.T) {
	const versions, attaches, warm = 4, 64, 8
	dcs, err := medigap.Constraints(medigap.Schema())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for v := 0; v < versions; v++ {
		in, err := medigap.Generate(0.05, uint64(100+v))
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("v%d.snapshot", v))
		if err := db.SaveSnapshot(in, p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var open *db.Snapshot
	defer func() { open.Close() }()
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var base uint64
	for i := 0; i < attaches; i++ {
		snap, err := db.OpenSnapshot(paths[i%versions])
		if err != nil {
			t.Fatal(err)
		}
		sys, err := aggcavsat.Open(snap.Instance(), aggcavsat.Options{DenialConstraints: dcs})
		if err != nil {
			t.Fatal(err)
		}
		srv.Attach("medigap", "", sys, snap.Instance(), dcs)
		if open != nil {
			open.Close()
		}
		open = snap
		resp, body := postQuery(t, ts.URL, &QueryRequest{Instance: "medigap", SQL: "SELECT COUNT(*) FROM SPT"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attach %d: %d %s", i, resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil || len(qr.Rows) != 1 {
			t.Fatalf("attach %d: response %s (%v)", i, body, err)
		}
		if i == warm-1 {
			base = liveHeap()
		}
	}
	end := liveHeap()
	t.Logf("live heap after %d attaches: %d B; after %d: %d B", warm, base, attaches, end)
	// One pinned version costs a few hundred KiB (the snapshot's
	// arenas are mmap'ed, but the dictionary table, violations and
	// indexes are heap); 56 of them would be tens of MiB.
	if end > base+(2<<20) {
		t.Errorf("live heap grew from %d B to %d B over %d re-attaches", base, end, attaches-warm)
	}
}
