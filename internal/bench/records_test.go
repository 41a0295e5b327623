package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"aggcavsat/internal/obsv"
)

func TestRecordsCapturedAndWritten(t *testing.T) {
	r := NewRunner(tinyConfig())
	if _, err := r.experimentByName("fig1"); err != nil {
		t.Fatal(err)
	}
	recs := r.Records()
	if len(recs) != 9 {
		t.Fatalf("records = %d, want 9 (one per scalar query)", len(recs))
	}
	for _, rec := range recs {
		if rec.Experiment != "fig1" {
			t.Errorf("%s: experiment = %q, want fig1", rec.Query, rec.Experiment)
		}
		if rec.Query == "" {
			t.Error("record with empty query name")
		}
		if rec.Timeout {
			continue
		}
		if rec.TotalMS <= 0 {
			t.Errorf("%s: total_ms = %g, want > 0", rec.Query, rec.TotalMS)
		}
		if rec.WitnessMS < 0 || rec.EncodeMS < 0 || rec.SolveMS < 0 || rec.ConstraintMS < 0 {
			t.Errorf("%s: negative phase duration: %+v", rec.Query, rec)
		}
	}
	// At least one query must actually reach the solver.
	solved := false
	for _, rec := range recs {
		if rec.SATCalls > 0 && rec.SolveMS > 0 {
			solved = true
		}
	}
	if !solved {
		t.Error("no record shows SAT activity")
	}

	dir := t.TempDir()
	if err := r.WriteRecords(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_fig1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var parsed []RunRecord
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(recs) {
		t.Fatalf("round-trip records = %d, want %d", len(parsed), len(recs))
	}
}

func TestRecordsSweepSettings(t *testing.T) {
	r := NewRunner(tinyConfig())
	if _, err := r.experimentByName("table3ab"); err != nil {
		t.Fatal(err)
	}
	settings := map[string]bool{}
	for _, rec := range r.Records() {
		settings[rec.Setting] = true
	}
	for _, want := range []string{"pct=5", "pct=15", "pct=25", "pct=35"} {
		if !settings[want] {
			t.Errorf("missing sweep setting %q (got %v)", want, settings)
		}
	}
}

func TestRunnerTraceCapture(t *testing.T) {
	tr := obsv.NewTracer()
	r := NewRunner(tinyConfig()).WithContext(obsv.WithTracer(context.Background(), tr))
	if _, err := r.Figure1(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("no spans captured through the runner context")
	}
	if open := tr.Open(); open != 0 {
		t.Fatalf("unbalanced trace: %d spans still open", open)
	}
}
