package db

import (
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.snapshot from the current encoder")

// TestSnapshotRoundTrip: encode → load (both via bytes and via the
// mmap path) reproduces every value kind exactly, including NULLs,
// empty strings, -0.0, and INT values stored in FLOAT columns; and the
// encoder fills a buffer of exactly the snapshot's size.
func TestSnapshotRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		col, _ := buildMixed(seed, 250)
		data, err := EncodeSnapshot(col)
		if err != nil {
			t.Fatal(err)
		}
		if cap(data) != len(data) {
			t.Fatalf("encoded %d bytes into a buffer of %d: snapshotSize is off", len(data), cap(data))
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
		// The adopted key index is the one the heap instance builds.
		requireSameIndex(t, snap.Instance().KeyEqualGroups(), col.KeyEqualGroups())
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

// TestSnapshotVersion1Refused: a file written in format version 1 (no
// key index section; the committed pre-section golden file) is refused
// with the typed version error.
func TestSnapshotVersion1Refused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "golden-v1.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotBytes(v1); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("v1 snapshot: got %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotVersion2Refused: a file written in format version 2 (no
// dictionary table; the committed golden file of that format) is
// refused with the typed version error, so it must be re-saved.
func TestSnapshotVersion2Refused(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "golden-v2.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotBytes(v2); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("v2 snapshot: got %v, want ErrSnapshotVersion", err)
	}
}

// reseal rewrites the header's data version to the hash of the (possibly
// tampered) body, as a writer of a consistent but wrong file would.
func reseal(data []byte) []byte {
	h := HashSeed
	for _, c := range data[snapHeaderSize : len(data)-8] {
		h = hashByte(h, c)
	}
	binary.LittleEndian.PutUint64(data[16:], h)
	return data
}

// dictTableAt returns the offset of the dictionary table length word.
func dictTableAt(data []byte) int {
	nStrings := int(binary.LittleEndian.Uint64(data[48:]))
	off := snapHeaderSize + snapAlign(int(binary.LittleEndian.Uint64(data[56:])))
	blob := int(binary.LittleEndian.Uint64(data[off+8*nStrings:]))
	return off + 8*(nStrings+1) + snapAlign(blob)
}

// TestSnapshotDictTable: a loaded dictionary aliases the stored table
// and answers every lookup; a table of the wrong shape is refused; a
// table of the right shape with the wrong content loads (only its shape
// is checked), misses lookups without a panic, and fails VerifySnapshot.
func TestSnapshotDictTable(t *testing.T) {
	col, _ := buildMixed(3, 200)
	data, err := EncodeSnapshot(col)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	d := loaded.Dict()
	for c := uint32(0); int(c) < col.Dict().Len(); c++ {
		if got, ok := d.Lookup(col.Dict().String(c)); !ok || got != c {
			t.Fatalf("Lookup(%q) = %d, %v, want %d", col.Dict().String(c), got, ok, c)
		}
	}
	at := dictTableAt(data)
	tableLen := int(binary.LittleEndian.Uint64(data[at:]))
	if tableLen != len(col.Dict().table) {
		t.Fatalf("stored table of %d slots, dictionary has %d", tableLen, len(col.Dict().table))
	}
	for _, bad := range []uint64{uint64(tableLen) - 1, 2 * uint64(d.Len()), 1 << 62} {
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(b[at:], bad)
		if _, err := LoadSnapshotBytes(reseal(b)); !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("table length %d: got %v, want ErrSnapshotTruncated", bad, err)
		}
	}
	for _, fill := range []uint32{0, 1, 0xffffffff} {
		b := append([]byte(nil), data...)
		for i := 0; i < tableLen; i++ {
			binary.LittleEndian.PutUint32(b[at+8+4*i:], fill)
		}
		b = reseal(b)
		in, err := LoadSnapshotBytes(b)
		if err != nil {
			t.Fatalf("fill %d: %v", fill, err)
		}
		in.Dict().Lookup("never stored")
		in.Dict().Lookup(col.Dict().String(0))
		if err := VerifySnapshot(b); !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("fill %d: VerifySnapshot got %v", fill, err)
		}
	}
}

// TestVerifySnapshot: written snapshots verify; a stored key index
// missing a violating group (R(1,a), R(1,b), R(2,c), R(2,d) stored
// with only the group {0,1}: the loader's checks all pass), a body
// byte that no longer hashes to the data version, and a dictionary
// holding one string twice each fail.
func TestVerifySnapshot(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		col, _ := buildMixed(seed, 150)
		data, err := EncodeSnapshot(col)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySnapshot(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// `[{"name":"Mix"…`: lower-casing the relation name still loads.
		flipped := append([]byte(nil), data...)
		flipped[snapHeaderSize+10] ^= 0x20
		if _, err := LoadSnapshotBytes(flipped); err != nil {
			t.Fatalf("seed %d: renamed relation: %v", seed, err)
		}
		if err := VerifySnapshot(flipped); !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("seed %d: flipped body byte: got %v", seed, err)
		}
	}

	in := keyIndexFixture()
	in.keyIndex = &KeyIndex{facts: in.NumFacts(), offsets: []uint32{0, 2}, members: []FactID{0, 1}}
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotBytes(data)
	if err != nil {
		t.Fatalf("the loader no longer trusts a missing group: %v", err)
	}
	if !loaded.KeyEqualGroups().Safe(2) {
		t.Fatal("fixture: fact 2 is expected to read as safe after the load")
	}
	if err := VerifySnapshot(data); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("missing group {2,3}: VerifySnapshot got %v", err)
	}

	dup := keyIndexFixture()
	dup.dict = &Dict{offs: []uint64{0, 1, 2, 3, 4, 5, 6}, bytes: []byte("abcdea")}
	dup.dict.rebuildTable(dictTableLen(dup.dict.Len()))
	data, err = EncodeSnapshot(dup)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshot(data); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("duplicate string: VerifySnapshot got %v", err)
	}
}

// keyIndexFixture is R(k INT key, v STRING) and keyless N(x INT):
//
//	0 R(1,a)  1 R(1,b)  2 R(2,c)  3 R(2,d)  4 N(7)  5 R(3,e)  6 N(7)
//
// whose key index is {0,1}, {2,3}.
func keyIndexFixture() *Instance {
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{Name: "R", Key: []int{0},
		Attrs: []Attribute{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindString}}})
	s.MustAddRelation(&RelationSchema{Name: "N", Attrs: []Attribute{{Name: "x", Kind: KindInt}}})
	in := NewInstance(s)
	in.MustInsert("R", Int(1), Str("a"))
	in.MustInsert("R", Int(1), Str("b"))
	in.MustInsert("R", Int(2), Str("c"))
	in.MustInsert("R", Int(2), Str("d"))
	in.MustInsert("N", Int(7))
	in.MustInsert("R", Int(3), Str("e"))
	in.MustInsert("N", Int(7))
	return in
}

// TestSnapshotKeyIndexCorrupt: a key index section that breaks any of
// the checks of the layout comment is refused with an error wrapping
// ErrSnapshotTruncated, never a panic. Each case writes the fixture
// with a tampered index in place of the built one.
func TestSnapshotKeyIndexCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name    string
		offsets []uint32
		members []FactID
	}{
		{"valid", []uint32{0, 2, 4}, []FactID{0, 1, 2, 3}},
		{"offsets not from 0", []uint32{1, 2, 4}, []FactID{0, 1, 2, 3}},
		{"offsets end short of members", []uint32{0, 2, 3}, []FactID{0, 1, 2, 3}},
		{"offsets end past members", []uint32{0, 2, 5}, []FactID{0, 1, 2, 3}},
		{"offsets fall", []uint32{0, 4, 2, 4}, []FactID{0, 1, 2, 3}},
		{"offset past members mid-way", []uint32{0, 9, 4}, []FactID{0, 1, 2, 3}},
		{"single-member group", []uint32{0, 2, 3}, []FactID{0, 1, 5}},
		{"more groups than facts allow", []uint32{0, 0, 0, 0, 0}, nil},
		{"members not ascending", []uint32{0, 2, 4}, []FactID{1, 0, 2, 3}},
		{"duplicate member", []uint32{0, 2, 4}, []FactID{0, 0, 2, 3}},
		{"member out of range", []uint32{0, 2, 4}, []FactID{0, 1, 2, 99}},
		{"negative member", []uint32{0, 2, 4}, []FactID{0, 1, -1, 3}},
		{"member in two groups", []uint32{0, 2, 4}, []FactID{0, 1, 1, 3}},
		{"groups out of order", []uint32{0, 2, 4}, []FactID{2, 3, 0, 1}},
		{"group in a keyless relation", []uint32{0, 2, 4}, []FactID{0, 1, 4, 6}},
		{"member of another relation", []uint32{0, 3}, []FactID{0, 1, 4}},
		{"members not key-equal", []uint32{0, 2, 4}, []FactID{0, 1, 2, 5}},
	} {
		in := keyIndexFixture()
		in.keyIndex = &KeyIndex{facts: in.NumFacts(), offsets: tc.offsets, members: tc.members}
		data, err := EncodeSnapshot(in)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSnapshotBytes(data)
		if tc.name == "valid" {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			requireSameIndex(t, loaded.KeyEqualGroups(), keyIndexFixture().KeyEqualGroups())
			continue
		}
		if !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("%s: got %v, want ErrSnapshotTruncated", tc.name, err)
		}
	}
}

// FuzzLoadSnapshotBytes: no byte string makes the loader panic; what
// it accepts passes or fails VerifySnapshot with a typed error, never a
// panic, reads back fact by fact, looks its strings up, and answers the
// key-index lookups. Seeded with the committed golden files.
func FuzzLoadSnapshotBytes(f *testing.F) {
	for _, name := range []string{"golden.snapshot", "golden-v1.snapshot", "golden-v2.snapshot"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	fixture, err := EncodeSnapshot(keyIndexFixture())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := LoadSnapshotBytes(data)
		if err != nil {
			return
		}
		if err := VerifySnapshot(data); err != nil && !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("VerifySnapshot: untyped error %v", err)
		}
		x := in.KeyEqualGroups()
		for id := FactID(0); int(id) < in.NumFacts(); id++ {
			rs := in.Schema().RelationByID(in.RelOf(id))
			for p := range rs.Attrs {
				if v := in.ValueAt(id, p); v.Kind() == KindString {
					in.Dict().Lookup(v.AsString())
				}
			}
			if g := x.GroupOf(id); g >= 0 && x.Members(g)[x.MemberOf(id)] != id {
				t.Fatalf("fact %d: not at MemberOf in its group", id)
			}
		}
		in.KeyInconsistency()
	})
}
