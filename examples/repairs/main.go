// Command repairs explores the repair semantics underneath the range
// consistent answers: it prints every repair of a small inconsistent
// database, then contrasts the three query-answering semantics —
// certain (CONS), possible (POSS), and range — on the same data.
//
// Run with:
//
//	go run ./examples/repairs
package main

import (
	"fmt"
	"log"
	"strings"

	"aggcavsat"
	"aggcavsat/internal/core"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
)

func main() {
	schema := aggcavsat.NewSchema()
	must(schema.AddRelation(&aggcavsat.RelationSchema{
		Name: "Emp",
		Attrs: []aggcavsat.Attribute{
			{Name: "id", Kind: aggcavsat.KindString},
			{Name: "dept", Kind: aggcavsat.KindString},
			{Name: "salary", Kind: aggcavsat.KindInt},
		},
		Key: []int{0},
	}))
	in := aggcavsat.NewInstance(schema)
	// Two conflicting records for Bob (different departments and
	// salaries) and one for Carol.
	in.MustInsert("Emp", aggcavsat.Str("alice"), aggcavsat.Str("R&D"), aggcavsat.Int(120))
	in.MustInsert("Emp", aggcavsat.Str("bob"), aggcavsat.Str("R&D"), aggcavsat.Int(95))
	in.MustInsert("Emp", aggcavsat.Str("bob"), aggcavsat.Str("Sales"), aggcavsat.Int(80))
	in.MustInsert("Emp", aggcavsat.Str("carol"), aggcavsat.Str("Sales"), aggcavsat.Int(100))

	fmt.Println("The inconsistent instance (bob violates the key):")
	for id := 0; id < in.NumFacts(); id++ {
		row := in.Row(db.FactID(id))
		fmt.Printf("  f%d: [%v %v %v]\n", id+1, row.Value(0), row.Value(1), row.Value(2))
	}

	fmt.Println("\nIts repairs (maximal consistent subsets):")
	n := 0
	err := exhaustive.RepairsKeys(in, func(keep []bool) bool {
		n++
		var facts []string
		for id, k := range keep {
			if k {
				facts = append(facts, fmt.Sprintf("f%d", id+1))
			}
		}
		fmt.Printf("  repair %d: {%s}\n", n, strings.Join(facts, ", "))
		return true
	})
	must(err)

	// The three semantics for the non-aggregate query "which departments
	// have an employee?".
	eng, err := core.New(in, core.Options{})
	must(err)
	q := cq.Single(cq.CQ{
		Head:  []string{"dept"},
		Atoms: []cq.Atom{{Rel: "Emp", Args: []cq.Term{cq.V("id"), cq.V("dept"), cq.V("sal")}}},
	})
	cons, _, err := eng.ConsistentAnswers(q)
	must(err)
	poss, _, err := eng.PossibleAnswers(q)
	must(err)
	fmt.Printf("\nq(dept) :- Emp(id, dept, salary)\n")
	fmt.Printf("  certain answers  (in every repair): %s\n", tuples(cons))
	fmt.Printf("  possible answers (in some repair):  %s\n", tuples(poss))

	// Range semantics for aggregates over the same data.
	sys, err := aggcavsat.Open(in, aggcavsat.Options{})
	must(err)
	for _, sql := range []string{
		`SELECT SUM(salary) FROM Emp`,
		`SELECT dept, COUNT(*) FROM Emp GROUP BY dept ORDER BY dept`,
		`SELECT MAX(salary) FROM Emp WHERE dept = 'Sales'`,
	} {
		res, err := sys.Query(sql)
		must(err)
		fmt.Printf("\n%s\n", sql)
		for _, row := range res.Rows {
			var cells []string
			for _, v := range row.Key {
				cells = append(cells, v.String())
			}
			for _, r := range row.Ranges {
				cells = append(cells, aggcavsat.FormatRange(r))
			}
			fmt.Printf("  => %s\n", strings.Join(cells, " | "))
		}
	}
	fmt.Println("\nReading: SUM ranges over both of bob's salaries; the Sales group")
	fmt.Println("is only a consistent answer if it appears in *every* repair —")
	fmt.Println("carol guarantees that here, while R&D's count depends on bob.")
}

func tuples(ts []db.Tuple) string {
	var out []string
	for _, t := range ts {
		out = append(out, t[0].String())
	}
	if len(out) == 0 {
		return "(none)"
	}
	return strings.Join(out, ", ")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
