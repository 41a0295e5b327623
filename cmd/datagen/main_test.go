package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggcavsat/internal/db"
	"aggcavsat/internal/schemafile"
)

// TestRunGolden pins the default directory: the demo TPC-H instance at
// sf 0.001, 10 % inconsistency and seed 2022, its schema.txt and its
// snapshot.
func TestRunGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tpch")
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-out", out}, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	const want = `wrote columnar snapshot $OUT/snapshot.bin (835928 bytes)
wrote 9419 tuples across 8 relations to $OUT
  nation         27 tuples, 11.11% violating keys
  supplier       11 tuples, 18.18% violating keys
  customer      161 tuples,  9.94% violating keys
  part          217 tuples, 10.14% violating keys
  partsupp      864 tuples, 10.07% violating keys
  orders       1627 tuples, 10.02% violating keys
  lineitem     6507 tuples, 10.00% violating keys
`
	if got := strings.ReplaceAll(stdout.String(), out, "$OUT"); got != want {
		t.Errorf("stdout =\n%s\nwant\n%s", got, want)
	}
	f, err := os.Open(filepath.Join(out, "schema.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parsed, err := schemafile.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	in, snap, err := db.OpenDir(parsed.Schema, out)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("reopened directory did not map the snapshot")
	}
	defer snap.Close()
	if in.NumFacts() != 9419 {
		t.Errorf("reopened directory holds %d facts, want 9419", in.NumFacts())
	}
}

func TestRunMedigapWritesFDs(t *testing.T) {
	out := t.TempDir()
	if err := run(context.Background(), []string{"-kind", "medigap", "-scale", "0.01", "-snapshot=false", "-out", out},
		&bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	schema, err := os.ReadFile(filepath.Join(out, "schema.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(schema), "fd OBS orgID -> orgName") {
		t.Errorf("schema.txt lacks the Medigap FDs:\n%s", schema)
	}
	if _, err := os.Stat(filepath.Join(out, db.SnapshotFileName)); !os.IsNotExist(err) {
		t.Errorf("-snapshot=false still wrote a snapshot (stat err %v)", err)
	}
}

func TestRunRejectsUnknownKind(t *testing.T) {
	err := run(context.Background(), []string{"-kind", "nope", "-out", t.TempDir()}, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `unknown kind "nope"`) {
		t.Fatalf("run error = %v", err)
	}
}
