package core

import (
	"fmt"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// TestTheoremIII1MaxCut checks the reduction behind Theorem III.1 (range
// consistent answers of SUM are NP-hard) on random small weighted
// graphs. V(vertex, color) has key {vertex} and two conflicting facts
// per vertex, so its repairs are exactly the 2-colourings; E(u, v, w)
// is consistent. The query sums the weights of the edges whose
// endpoints got different colours — the cut weight — so its lub must be
// MAX-CUT and its glb the minimum cut, both found here by enumerating
// every colouring. Negative weights keep the minimum cut non-trivial.
func TestTheoremIII1MaxCut(t *testing.T) {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "V",
		Attrs: []db.Attribute{
			{Name: "vertex", Kind: db.KindInt},
			{Name: "color", Kind: db.KindString},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "E",
		Attrs: []db.Attribute{
			{Name: "u", Kind: db.KindInt},
			{Name: "v", Kind: db.KindInt},
			{Name: "w", Kind: db.KindInt},
		},
		Key: []int{0, 1},
	})
	cut := cq.AggQuery{
		Op:     cq.Sum,
		AggVar: "w",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{
				{Rel: "E", Args: []cq.Term{cq.V("u"), cq.V("v"), cq.V("w")}},
				{Rel: "V", Args: []cq.Term{cq.V("u"), cq.V("c1")}},
				{Rel: "V", Args: []cq.Term{cq.V("v"), cq.V("c2")}},
			},
			Conds: []cq.Condition{{Left: cq.V("c1"), Op: cq.OpNE, Right: cq.V("c2")}},
		}),
	}
	type edge struct {
		u, v int
		w    int64
	}
	for seed := 1; seed <= 20; seed++ {
		r := rng(seed*7919 + 3)
		n := 3 + r.next(5) // 3–7 vertices
		var edges []edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.next(2) == 0 {
					w := int64(1 + r.next(9))
					if r.next(4) == 0 {
						w = -w
					}
					edges = append(edges, edge{u, v, w})
				}
			}
		}
		if len(edges) == 0 {
			edges = append(edges, edge{0, 1, 1})
		}

		in := db.NewInstance(s)
		for v := 0; v < n; v++ {
			in.MustInsert("V", db.Int(int64(v)), db.Str("r"))
			in.MustInsert("V", db.Int(int64(v)), db.Str("b"))
		}
		for _, e := range edges {
			in.MustInsert("E", db.Int(int64(e.u)), db.Int(int64(e.v)), db.Int(e.w))
		}

		maxCut, minCut := int64(-1<<62), int64(1<<62)
		for mask := 0; mask < 1<<n; mask++ {
			var c int64
			for _, e := range edges {
				if (mask>>e.u)&1 != (mask>>e.v)&1 {
					c += e.w
				}
			}
			maxCut, minCut = max(maxCut, c), min(minCut, c)
		}

		label := fmt.Sprintf("seed %d (%d vertices, %d edges)", seed, n, len(edges))
		rep, err := mustEngine(t, in).RangeAnswers(cut)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(rep.Answers) != 1 {
			t.Fatalf("%s: %d answers, want one scalar range", label, len(rep.Answers))
		}
		got := rep.Answers[0]
		if got.LUB.AsInt() != maxCut || got.GLB.AsInt() != minCut {
			t.Errorf("%s: range [%v, %v], want [min cut %d, MAX-CUT %d]",
				label, got.GLB, got.LUB, minCut, maxCut)
		}
	}
}
