package db

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.snapshot from the current encoder")

// TestSnapshotRoundTrip: encode → load (both via bytes and via the
// mmap path) reproduces every value kind exactly, including NULLs,
// empty strings, -0.0, and INT values stored in FLOAT columns.
func TestSnapshotRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		col, _ := buildMixed(seed, 250)
		data, err := EncodeSnapshot(col)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSnapshotBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		requireSameInstances(t, loaded, col)
		if loaded.DataVersion() == 0 {
			t.Fatal("loaded snapshot has zero data version")
		}

		path := filepath.Join(t.TempDir(), "snap.bin")
		if err := SaveSnapshot(col, path); err != nil {
			t.Fatal(err)
		}
		snap, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		requireSameInstances(t, snap.Instance(), col)
		if snap.DataVersion() != loaded.DataVersion() {
			t.Fatalf("data versions differ: %x vs %x", snap.DataVersion(), loaded.DataVersion())
		}
		// Key-equal groups work off the mapped arenas.
		if got, want := len(snap.Instance().KeyEqualGroups()), len(col.KeyEqualGroups()); got != want {
			t.Fatalf("mapped groups: %d, want %d", got, want)
		}
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
		if err := snap.Close(); err != nil {
			t.Fatal("double Close must be a no-op:", err)
		}
	}
}

// TestSnapshotRoundTripRowSource: a loaded snapshot holds exactly the
// row source — the tuples the test inserted, kept on the test side —
// independently of the encoder's own view of the instance.
func TestSnapshotRoundTripRowSource(t *testing.T) {
	in, ref := buildMixed(5, 120)
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesRef(t, loaded, ref)
}

// TestSnapshotDeterministic: encoding is byte-stable — the same facts
// produce the same bytes and the same data version.
func TestSnapshotDeterministic(t *testing.T) {
	a, _ := buildMixed(9, 200)
	b, _ := buildMixed(9, 200)
	da, err := EncodeSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := EncodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("identical instances encode to different bytes")
	}
	c, _ := buildMixed(10, 200)
	dc, err := EncodeSnapshot(c)
	if err != nil {
		t.Fatal(err)
	}
	la, _ := LoadSnapshotBytes(da)
	lc, _ := LoadSnapshotBytes(dc)
	if la.DataVersion() == lc.DataVersion() {
		t.Fatal("different contents share a data version")
	}
}

// TestSnapshotFrozen: snapshot-backed instances refuse Insert with a
// clear error instead of scribbling on (potentially mapped) memory.
func TestSnapshotFrozen(t *testing.T) {
	col, _ := buildMixed(2, 60)
	data, err := EncodeSnapshot(col)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Insert("Mix", Tuple{Int(1), Float(2), Str("x"), Int(3)}); err == nil {
		t.Fatal("Insert into snapshot-backed instance must fail")
	}
	// Subset of a frozen instance materializes a fresh, mutable one.
	sub := loaded.Subset(func(FactID) bool { return true })
	if _, err := sub.Insert("Mix", Tuple{Int(-99), Float(2), Str("x"), Int(3)}); err != nil {
		t.Fatal("Subset of a snapshot must be mutable:", err)
	}
}

// TestSnapshotTypedErrors: magic, version, and truncation failures are
// the exported sentinel errors.
func TestSnapshotTypedErrors(t *testing.T) {
	col, _ := buildMixed(4, 100)
	data, err := EncodeSnapshot(col)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := LoadSnapshotBytes([]byte("definitely not a snapshot file at all")); !errors.Is(err, ErrSnapshotMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := LoadSnapshotBytes(data[:11]); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("tiny file: got %v", err)
	}

	wrongVersion := append([]byte(nil), data...)
	wrongVersion[8] = 99
	if _, err := LoadSnapshotBytes(wrongVersion); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("wrong version: got %v", err)
	}

	// Every proper prefix must be rejected as truncated, never panic.
	for _, cut := range []int{len(data) - 1, len(data) - 8, len(data) / 2, snapHeaderSize + 3, snapHeaderSize} {
		if cut < 0 {
			continue
		}
		if _, err := LoadSnapshotBytes(data[:cut]); !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("prefix %d: got %v", cut, err)
		}
	}

	// A tail-patched file with a lying size field is truncated too.
	resized := append([]byte(nil), data...)
	resized = append(resized, 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := LoadSnapshotBytes(resized); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("size mismatch: got %v", err)
	}

	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("OpenSnapshot of a missing file must fail")
	}
}

// TestSnapshotUnalignedBuffer: a deliberately misaligned byte slice
// still decodes (via the internal aligned copy).
func TestSnapshotUnalignedBuffer(t *testing.T) {
	col, _ := buildMixed(6, 90)
	data, err := EncodeSnapshot(col)
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	loaded, err := LoadSnapshotBytes(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	requireSameInstances(t, loaded, col)
}

// goldenInstance is a small fixed instance covering every value shape;
// its snapshot bytes are committed as testdata/golden.snapshot and
// guard the format against accidental drift.
func goldenInstance() *Instance {
	in := NewInstance(mixedSchema())
	in.MustInsert("Mix", Int(1), Float(1.5), Str("alpha"), Int(10))
	in.MustInsert("Mix", Int(1), Float(-0.0), Str("beta"), Null())
	in.MustInsert("Mix", Int(2), Int(7), Str(""), Int(-3)) // INT in FLOAT column
	in.MustInsert("Mix", Null(), Null(), Null(), Null())
	in.MustInsert("NoKey", Str("alpha"), Float(2.25))
	in.MustInsert("NoKey", Str("x\x1fy"), Null()) // separator byte inside a string
	return in
}

// TestSnapshotGolden: today's encoder reproduces the committed golden
// bytes exactly, and the committed bytes load into the expected facts.
// Regenerate with: go test ./internal/db -run TestSnapshotGolden -update-golden
func TestSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden.snapshot")
	want := goldenInstance()
	data, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden snapshot (regenerate with -update-golden): %v", err)
	}
	if string(golden) != string(data) {
		t.Fatalf("snapshot encoding drifted from the committed golden file (%d vs %d bytes); "+
			"if the format change is intentional, bump SnapshotFormatVersion and regenerate with -update-golden",
			len(data), len(golden))
	}
	loaded, err := LoadSnapshotBytes(golden)
	if err != nil {
		t.Fatal(err)
	}
	requireSameInstances(t, loaded, want)
}
