package sqlparse_test

import (
	"testing"

	"aggcavsat/internal/sqlparse"
	"aggcavsat/internal/tpch"
)

// FuzzParseAndTranslate: no SQL text makes the parser or the
// translator panic, and what they accept translates to at least one
// aggregate query, each over at least one conjunctive query. Seeded with
// the TPC-H workload templates. An external test package, because tpch
// imports sqlparse.
func FuzzParseAndTranslate(f *testing.F) {
	for _, q := range append(tpch.ScalarQueries(), tpch.GroupedQueries()...) {
		f.Add(q.SQL)
	}
	schema := tpch.Schema()
	f.Fuzz(func(t *testing.T, sql string) {
		tr, err := sqlparse.ParseAndTranslate(sql, schema)
		if err != nil {
			return
		}
		if len(tr.Aggs) == 0 {
			t.Fatalf("%q: translation without an aggregate", sql)
		}
		for _, a := range tr.Aggs {
			if len(a.Query.Underlying.Disjuncts) == 0 {
				t.Fatalf("%q: aggregate %v over an empty union", sql, a.Item)
			}
		}
	})
}
