package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggcavsat/internal/obsv"
)

// TestReplayJournalsEveryQuery runs a small replay with the journal
// enabled and checks the core accounting contract: decoded journal line
// count == queries issued, and the rendered table carries the
// percentile columns.
func TestReplayJournalsEveryQuery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := obsv.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Journal = j
	r := NewRunner(cfg)

	var out bytes.Buffer
	rep, err := r.Replay(ReplayOptions{N: 6, Concurrency: 2}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Issued != 6 {
		t.Fatalf("issued = %d, want 6", rep.Issued)
	}
	entries, err := obsv.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != rep.Issued {
		t.Errorf("journal lines = %d, issued = %d (every query must journal)", len(entries), rep.Issued)
	}
	for i, e := range entries {
		if e.Query == "" || !strings.HasPrefix(e.Query, "Q") {
			t.Errorf("line %d query label = %q, want a workload name", i, e.Query)
		}
	}
	if rep.Overall.Count != int64(rep.Issued) {
		t.Errorf("overall latency count = %d, want %d", rep.Overall.Count, rep.Issued)
	}
	var perTotal int
	for _, q := range rep.PerQuery {
		perTotal += q.Issued
		if q.Latency.Count != int64(q.Issued) {
			t.Errorf("%s: latency count %d != issued %d", q.Name, q.Latency.Count, q.Issued)
		}
	}
	if perTotal != rep.Issued {
		t.Errorf("per-query issued sums to %d, want %d", perTotal, rep.Issued)
	}
	for _, col := range []string{"p50 ms", "p90 ms", "p99 ms", "max ms", "all"} {
		if !strings.Contains(out.String(), col) {
			t.Errorf("table missing %q:\n%s", col, out.String())
		}
	}
	// Round trip: the journal captured above is itself a valid replay
	// source (labels are workload names).
	r2 := NewRunner(tinyConfig())
	rep2, err := r2.Replay(ReplayOptions{Source: jpath, Concurrency: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Issued != rep.Issued {
		t.Errorf("journal-sourced replay issued %d, want %d", rep2.Issued, rep.Issued)
	}
}

// TestReplaySpecFile drives the stream from a plain spec file with
// comments, repeats (weighting), and an unknown name (skipped).
func TestReplaySpecFile(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "mix.txt")
	content := "# weighted mix\nQ1'\nQ1'\nQ6'\n\nNOPE\n"
	if err := os.WriteFile(spec, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(tinyConfig())
	rep, err := r.Replay(ReplayOptions{Source: spec, QPS: 500}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Issued != 3 {
		t.Errorf("issued = %d, want 3 (Q1' twice + Q6')", rep.Issued)
	}
	if rep.Skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the unknown name)", rep.Skipped)
	}
	if len(rep.PerQuery) != 2 {
		t.Errorf("per-query rows = %d, want 2", len(rep.PerQuery))
	}
	for _, q := range rep.PerQuery {
		want := map[string]int{"Q1'": 2, "Q6'": 1}[q.Name]
		if q.Issued != want {
			t.Errorf("%s issued = %d, want %d (spec weighting)", q.Name, q.Issued, want)
		}
	}
}

// TestReplayRejectsUselessStreams pins the error paths: a stream with
// no resolvable names, and a missing source file.
func TestReplayRejectsUselessStreams(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(spec, []byte("# only comments\nWHO\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(tinyConfig())
	if _, err := r.Replay(ReplayOptions{Source: spec}, nil); err == nil {
		t.Error("stream with no known queries accepted")
	}
	if _, err := r.Replay(ReplayOptions{Source: filepath.Join(t.TempDir(), "missing")}, nil); err == nil {
		t.Error("missing source accepted")
	}
}
