package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggcavsat/internal/obsv"
)

func TestRunList(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	const want = "fig1\nfig2\ntable2\nfig3\ntable3ab\nfig4\ntable3cd\nfig5\nfig6\nfig7\nfig8\ntable4\nfig9\n"
	if stdout.String() != want {
		t.Errorf("-list =\n%s\nwant\n%s", stdout.String(), want)
	}
}

// TestRunFigure9Golden runs Figure 9 with a journal and pins its
// deterministic columns (query, SAT calls, groups; the timings vary),
// one journal line per engine call, and the -journal-read summary of
// that journal.
func TestRunFigure9Golden(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-exp", "fig9", "-medigap-scale", "0.02", "-parallel", "1",
		"-journal", journal}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	var got strings.Builder
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) == 8 && strings.HasPrefix(f[0], "Q") {
			got.WriteString(f[0] + " " + f[6] + " " + f[7] + "\n")
		}
	}
	const want = "Q1m 0 1\nQ2m 0 1\nQ3m 0 1\nQ4m 0 1\nQ5m 0 1\nQ6m 0 1\nQ7m 0 2\nQ8m 0 12\nQ9m 8 12\nQ10m 0 8\nQ11m 0 7\nQ12m 0 6\n"
	if got.String() != want {
		t.Errorf("Figure 9 (query satcalls groups) =\n%s\nwant\n%s\nfull output:\n%s", got.String(), want, stdout.String())
	}

	entries, err := obsv.ReadJournalFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Errorf("journal lines = %d, want one per engine call (12)", len(entries))
	}
	stdout.Reset()
	if err := run(context.Background(), []string{"-journal-read", journal}, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 14 || !strings.HasPrefix(lines[0], "query") || strings.Join(strings.Fields(lines[13]), " ") != "total 12" {
		t.Errorf("-journal-read summary =\n%s", stdout.String())
	}
}

// TestRunFailureFlushesOutputs pins that a failing run still writes
// every output it was asked for: a complete trace file, the CPU and
// heap profiles, and a closed journal.
func TestRunFailureFlushesOutputs(t *testing.T) {
	dir := t.TempDir()
	trace, cpu, mem := filepath.Join(dir, "t.json"), filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	err := run(context.Background(), []string{"-exp", "no-such-experiment", "-trace", trace,
		"-cpuprofile", cpu, "-memprofile", mem, "-journal", filepath.Join(dir, "j.jsonl")},
		&bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "no-such-experiment") {
		t.Fatalf("run error = %v, want the unknown experiment", err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Errorf("trace file does not parse:\n%s", raw)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (%v)", p, err)
		}
	}
}
