package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"aggcavsat/internal/cq"
)

// TestExplainReconcilesWithStats is the `-explain` vs `-stats` contract:
// both views of a solve are projections of the one call-local metric
// snapshot, so the explain report's Stats must equal the Report's Stats
// field for field.
func TestExplainReconcilesWithStats(t *testing.T) {
	e, err := New(bank(), Options{Mode: KeysMode, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RangeAnswers(paperSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	ex := rep.Explain
	if ex == nil {
		t.Fatal("Explain missing despite Options.Explain")
	}
	if !reflect.DeepEqual(ex.Stats, rep.Stats) {
		t.Errorf("explain stats diverge from report stats:\nexplain: %+v\nreport:  %+v", ex.Stats, rep.Stats)
	}
	if ex.Op != "SUM" || ex.Mode != "keys" || ex.Algorithm != "maxhs" {
		t.Errorf("explain identity = op %q mode %q alg %q", ex.Op, ex.Mode, ex.Algorithm)
	}
	if len(ex.Components) == 0 {
		t.Fatal("no component breakdown recorded")
	}
	if int(ex.BaseHits+ex.BaseMisses) != len(ex.Components) {
		t.Errorf("base hits %d + misses %d != %d components (incremental path)",
			ex.BaseHits, ex.BaseMisses, len(ex.Components))
	}
	// The paper's SUM solve runs two WPMaxSAT directions (glb and lub):
	// they must show up as solver passes somewhere in the breakdown.
	dirs := map[string]bool{}
	var satCalls int64
	for _, ce := range ex.Components {
		for _, d := range ce.Directions {
			dirs[d.Direction] = true
			satCalls += d.SATCalls
			// Default budgets: MaxHS answers without its RC2 fallback.
			if d.Algorithm != "maxhs" {
				t.Errorf("component %d %s pass answered by %q, want maxhs", ce.Index, d.Direction, d.Algorithm)
			}
		}
	}
	if !dirs["glb"] || !dirs["lub"] {
		t.Errorf("directions seen = %v, want glb and lub", dirs)
	}
	if satCalls == 0 || satCalls > rep.Stats.SATCalls {
		t.Errorf("component sat calls = %d, report total = %d", satCalls, rep.Stats.SATCalls)
	}
}

// TestExplainPerCall checks that explain reports do not leak across
// calls: each solve gets its own snapshot, and a grouped query breaks
// into at least as many solve units as answer groups.
func TestExplainPerCall(t *testing.T) {
	e, err := New(bank(), Options{Mode: KeysMode, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.AggQuery{
		Op:      cq.CountStar,
		GroupBy: []string{"city"},
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.V("n"), cq.V("city")}}},
		}),
	}
	rep1, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Explain == rep2.Explain {
		t.Fatal("explain report shared between calls")
	}
	if !reflect.DeepEqual(rep2.Explain.Stats, rep2.Stats) {
		t.Error("second call's explain stats diverge from its report stats")
	}
	units := 0
	for _, ce := range rep2.Explain.Components {
		units += ce.Witnesses
	}
	if units < len(rep2.Answers) {
		t.Errorf("component units = %d < %d answer groups", units, len(rep2.Answers))
	}
}

func TestExplainNilWhenDisabled(t *testing.T) {
	e := mustEngine(t, bank())
	rep, err := e.RangeAnswers(paperSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explain != nil {
		t.Error("Explain present without Options.Explain")
	}
}

func TestExplainWriteTableAndJSON(t *testing.T) {
	e, err := New(bank(), Options{Mode: KeysMode, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RangeAnswers(paperSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Explain.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mode", "keys", "base cache", "phase", "witness", "solve", "component", "glb", "lub"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	b, err := json.Marshal(rep.Explain)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"mode":"keys"`, `"components"`, `"stats"`, `"base_hits"`, `"route"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing %s:\n%s", key, b)
		}
	}
}
