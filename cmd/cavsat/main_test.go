package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggcavsat"
	"aggcavsat/internal/obsv"
)

// writeBank materializes a small inconsistent bank instance: account A2
// violates its key, so it lives in LA in one repair and in SF in the
// other.
func writeBank(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"schema.txt": "relation Acc (AID:string CITY:string BAL:int) key AID\n",
		"acc.csv":    "AID,CITY,BAL\nA1,LA,100\nA2,LA,50\nA2,SF,70\nA3,SJ,30\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunGolden(t *testing.T) {
	dir := writeBank(t)
	for _, planner := range []string{"auto", "force-sat"} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"-data", dir, "-planner", planner, "-stats",
			"SELECT CITY, SUM(BAL) FROM Acc GROUP BY CITY"}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("%s: %v\n%s", planner, err, stderr.String())
		}
		const want = "CITY | SUM(BAL)\nLA | [100, 150]\nSJ | 30\n"
		if stdout.String() != want {
			t.Errorf("%s: stdout =\n%s\nwant\n%s", planner, stdout.String(), want)
		}
		if !strings.Contains(stderr.String(), "SAT calls") {
			t.Errorf("%s: -stats table missing from stderr:\n%s", planner, stderr.String())
		}
	}
}

// TestFailedQueryKeepsArtifacts pins that a query that times out still
// flushes every output it was asked for: the journal holds exactly one
// line with its error set and the trace file is a complete Chrome
// trace, while run itself reports the timeout.
func TestFailedQueryKeepsArtifacts(t *testing.T) {
	dir := writeBank(t)
	out := t.TempDir()
	journal, trace := filepath.Join(out, "j.jsonl"), filepath.Join(out, "t.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-data", dir, "-planner", "force-sat", "-timeout", "1ns",
		"-journal", journal, "-trace", trace, "-stats", "-explain",
		"SELECT CITY, SUM(BAL) FROM Acc GROUP BY CITY"}, &stdout, &stderr)
	if !errors.Is(err, aggcavsat.ErrTimeout) {
		t.Fatalf("run error = %v, want a timeout", err)
	}
	entries, err := obsv.ReadJournalFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Error == "" {
		t.Fatalf("journal = %+v, want one line with its error set", entries)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace file does not parse: %v\n%s", err, raw)
	}
	if len(chrome.TraceEvents) == 0 || chrome.TraceEvents[0].Name != "query" {
		t.Errorf("trace events = %+v, want the query span first", chrome.TraceEvents)
	}
}

// TestBadOutputPathFailsFirst pins that outputs are opened before the
// data is loaded: an unwritable -trace path fails the run even though
// the data directory does not exist either.
func TestBadOutputPathFailsFirst(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "missing", "t.json")
	err := run(context.Background(), []string{"-data", "/nonexistent", "-trace", trace, "SELECT COUNT(*) FROM Acc"},
		&bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), trace) {
		t.Fatalf("run error = %v, want one naming %s", err, trace)
	}
}
