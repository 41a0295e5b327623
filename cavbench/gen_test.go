package main

import (
	"reflect"
	"strings"
	"testing"

	"aggcavsat/internal/medigap"
	"aggcavsat/internal/sqlparse"
	"aggcavsat/internal/tpch"
	"aggcavsat/internal/xrand"
)

func TestStreamDeterministic(t *testing.T) {
	a := Stream(7, 300, tpchTemplates, serveRepeatEvery)
	b := Stream(7, 300, tpchTemplates, serveRepeatEvery)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different streams")
	}
	if reflect.DeepEqual(a, Stream(8, 300, tpchTemplates, serveRepeatEvery)) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	if !reflect.DeepEqual(MedigapOrder(xrand.New(3)), MedigapOrder(xrand.New(3))) {
		t.Fatal("one seed gave two different Medigap orders")
	}
}

func TestTemplatesTranslate(t *testing.T) {
	schema := tpch.Schema()
	if len(tpchTemplates) != 15 {
		t.Fatalf("%d TPC-H templates, want 15", len(tpchTemplates))
	}
	for _, st := range Stream(1, 40*len(tpchTemplates), tpchTemplates, 0) {
		tr, err := sqlparse.ParseAndTranslate(st.SQL, schema)
		if err != nil {
			t.Fatalf("%s: %v\n%s", st.Template, err, st.SQL)
		}
		if len(tr.Aggs) != 1 {
			t.Fatalf("%s: %d aggregates, want 1", st.Template, len(tr.Aggs))
		}
	}
	order := MedigapOrder(xrand.New(1))
	if len(order) != 12 {
		t.Fatalf("%d Medigap statements, want 12", len(order))
	}
	for _, st := range order {
		if _, err := sqlparse.ParseAndTranslate(st.SQL, medigap.Schema()); err != nil {
			t.Fatalf("%s: %v", st.Template, err)
		}
	}
	for _, sql := range []string{tpchProbe} {
		if _, err := sqlparse.ParseAndTranslate(sql, schema); err != nil {
			t.Fatalf("probe: %v", err)
		}
	}
	if _, err := sqlparse.ParseAndTranslate(medigapProbe, medigap.Schema()); err != nil {
		t.Fatalf("probe: %v", err)
	}
}

// TestServeStreamShape pins the serve stream's stated properties: one
// request in four repeats an earlier statement, the distinct
// statements fit the server's 1024-entry result cache, new statements
// cover the templates evenly, and none collides with the warm-up
// queries (which would turn a first request into a cache hit).
func TestServeStreamShape(t *testing.T) {
	warm := map[string]bool{tpchProbe: true}
	for _, q := range append(tpch.ScalarQueries(), tpch.GroupedQueries()...) {
		warm[q.SQL] = true
	}
	for seed := uint64(1); seed <= 10; seed++ {
		n := int(serveRate * 60) // a one-minute window
		stream := Stream(seed, n, tpchTemplates, serveRepeatEvery)
		uniq := distinct(stream)
		if want := n - n/serveRepeatEvery; len(uniq) != want {
			t.Errorf("seed %d: %d distinct statements of %d, want %d", seed, len(uniq), n, want)
		}
		if len(uniq) > 1024 {
			t.Errorf("seed %d: %d distinct statements do not fit the result cache", seed, len(uniq))
		}
		perTemplate, perFlag := map[string]int{}, map[string]int{}
		for _, st := range uniq {
			perTemplate[st.Template]++
			if warm[st.SQL] {
				t.Errorf("seed %d: %s repeats a warm-up statement", seed, st.Template)
			}
			if st.Template == "Q10" {
				for _, f := range flags {
					if strings.Contains(st.SQL, "l_returnflag = '"+f+"'") {
						perFlag[f]++
					}
				}
			}
		}
		// Categorical constants cycle, so each return flag takes the
		// same share of the Q10 variants for every seed.
		for _, f := range flags {
			if want := perTemplate["Q10"] / len(flags); perFlag[f] != want {
				t.Errorf("seed %d: flag %s in %d of %d Q10 variants, want %d", seed, f, perFlag[f], perTemplate["Q10"], want)
			}
		}
		for _, tm := range tpchTemplates {
			if c := perTemplate[tm.name]; c < len(uniq)/len(tpchTemplates) || c > len(uniq)/len(tpchTemplates)+1 {
				t.Errorf("seed %d: template %s has %d of %d statements", seed, tm.name, c, len(uniq))
			}
		}
	}
}

func TestSATBatchStreamDistinct(t *testing.T) {
	stream := Stream(5, satBatchRounds*len(satBatchTemplates()), satBatchTemplates(), 0)
	if d := len(distinct(stream)); d != len(stream) {
		t.Fatalf("sat_batch stream repeats: %d distinct of %d", d, len(stream))
	}
	for _, st := range stream {
		if satHeavy[st.Template] {
			t.Fatalf("sat_batch stream holds budget-exhausting template %s", st.Template)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// distinct returns the distinct statements of a stream in first-seen
// order.
func distinct(stream []Statement) []Statement {
	seen := map[string]bool{}
	var out []Statement
	for _, st := range stream {
		if !seen[st.SQL] {
			seen[st.SQL] = true
			out = append(out, st)
		}
	}
	return out
}
