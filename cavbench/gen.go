package main

import (
	"fmt"
	"strings"

	"aggcavsat/internal/medigap"
	"aggcavsat/internal/xrand"
)

// Statement is one generated SQL statement of a workload stream.
type Statement struct {
	// Template names the TPC-H or Medigap template the statement was
	// drawn from (the paper's query name, e.g. "Q3'" or "Q12m").
	Template string
	SQL      string
}

// template renders one parameterized variant of a paper query.
type template struct {
	name   string
	render func(v draw) string
}

// draw is what one render sees: the stream's generator, which draws the
// dates and numbers, and the variant's position k among its template's
// variants, which picks the categorical constants (flags, segments,
// regions, ship modes, priorities, types, brands). Successive variants
// walk through each category list from a seeded start, so every run
// holds the same mix of categories and the seed moves only the numbers.
type draw struct {
	*xrand.Rand
	k int
}

// pick returns the variant's entry of a category list.
func (v draw) pick(xs []string) string { return v.pickAt(xs, 0) }

// pickAt is pick for the i-th of several entries from one list.
func (v draw) pickAt(xs []string, i int) string { return xs[(v.k+i)%len(xs)] }

// Flat-calendar helpers: the DBGen generator draws dates from 28-day
// months between 1992-01-01 and 1998-12-31, so every constant below stays
// on that calendar.
func date(y, m, d int) string { return fmt.Sprintf("%04d-%02d-%02d", y, m, d) }

// addMonths shifts (y, m) by n months.
func addMonths(y, m, n int) (int, int) {
	t := y*12 + (m - 1) + n
	return t / 12, t%12 + 1
}

// window draws a date range of the template's length in months,
// starting on the first of a month in years [y0, y1]. Only the start
// moves, so variants of one template select similar amounts of data.
func window(r *xrand.Rand, y0, y1, months int) (y, m, y2, m2 int) {
	y, m = r.Range(y0, y1), r.Range(1, 12)
	y2, m2 = addMonths(y, m, months)
	return y, m, y2, m2
}

// cutoff draws the Q1 ship-date bound in 1998.
func cutoff(r *xrand.Rand) string {
	return date(1998, r.Range(1, 11), r.Range(1, 28))
}

var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	types1     = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	brands     = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#23", "Brand#34", "Brand#45", "Brand#55"}
	containers = []string{"SM CASE", "SM BOX", "MED BAG", "MED PKG", "LG CASE", "LG BOX", "JUMBO JAR", "WRAP CAN"}
	flags      = []string{"A", "N", "R"}
	statuses   = []string{"O", "F"}
)

// tpchTemplates are the 15 TPC-H templates of the paper's evaluation
// (internal/tpch: six grouped queries and nine scalar Q′ variants), with
// the date, segment, ship-mode, priority, region and brand constants
// lifted into parameters. Each render keeps the template's join shape
// and predicate structure; only constants change. The order pairs each
// grouped query with its cheaper scalar variant, so a stream that cycles
// through it never bunches the expensive templates together.
var tpchTemplates = []template{
	{name: "Q1", render: func(v draw) string {
		return fmt.Sprintf(`SELECT l_returnflag, l_linestatus, SUM(l_quantity) FROM lineitem
WHERE l_shipdate <= '%s'
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
			cutoff(v.Rand))
	}},
	{name: "Q1'", render: func(v draw) string {
		return fmt.Sprintf(`SELECT SUM(l_quantity) FROM lineitem
WHERE l_shipdate <= '%s' AND l_returnflag = '%s' AND l_linestatus = '%s'`,
			cutoff(v.Rand), v.pick(flags), v.pick(statuses))
	}},
	{name: "Q3", render: func(v draw) string {
		d := date(1995, v.Range(2, 4), v.Range(1, 28))
		return fmt.Sprintf(`SELECT TOP 10 l_orderkey, SUM(l_extendedprice) FROM customer, orders, lineitem
WHERE c_mktsegment = '%s' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < '%s' AND l_shipdate > '%s'
GROUP BY l_orderkey ORDER BY l_orderkey`, v.pick(segments), d, d)
	}},
	{name: "Q3'", render: func(v draw) string {
		d := date(1995, v.Range(2, 4), v.Range(1, 28))
		return fmt.Sprintf(`SELECT SUM(l_extendedprice) FROM customer, orders, lineitem
WHERE c_mktsegment = '%s' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < '%s' AND l_shipdate > '%s'`, v.pick(segments), d, d)
	}},
	{name: "Q4", render: func(v draw) string {
		y, m, y2, m2 := window(v.Rand, 1993, 1996, 15)
		return fmt.Sprintf(`SELECT o_orderpriority, COUNT(*) FROM orders, lineitem
WHERE o_orderdate >= '%s' AND o_orderdate < '%s'
  AND l_orderkey = o_orderkey AND l_commitdate < l_receiptdate
GROUP BY o_orderpriority ORDER BY o_orderpriority`, date(y, m, 1), date(y2, m2, 1))
	}},
	{name: "Q4'", render: func(v draw) string {
		y, m, y2, m2 := window(v.Rand, 1993, 1996, 15)
		return fmt.Sprintf(`SELECT COUNT(*) FROM orders, lineitem
WHERE o_orderdate >= '%s' AND o_orderdate < '%s'
  AND l_orderkey = o_orderkey AND l_commitdate < l_receiptdate AND o_orderpriority = '%s'`,
			date(y, m, 1), date(y2, m2, 1), v.pick(priorities))
	}},
	{name: "Q5", render: func(v draw) string {
		y, m, y2, m2 := window(v.Rand, 1993, 1996, 12)
		return fmt.Sprintf(`SELECT n_name, SUM(l_extendedprice) FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '%s' AND o_orderdate >= '%s' AND o_orderdate < '%s'
GROUP BY n_name ORDER BY n_name`, v.pick(regions), date(y, m, 1), date(y2, m2, 1))
	}},
	{name: "Q5'", render: func(v draw) string {
		y, m, y2, m2 := window(v.Rand, 1993, 1996, 12)
		return fmt.Sprintf(`SELECT SUM(l_extendedprice) FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '%s' AND o_orderdate >= '%s' AND o_orderdate < '%s'`,
			v.pick(regions), date(y, m, 1), date(y2, m2, 1))
	}},
	{name: "Q10", render: func(v draw) string {
		y, m, y2, m2 := window(v.Rand, 1993, 1996, 3)
		return fmt.Sprintf(`SELECT TOP 20 c_custkey, SUM(l_extendedprice) FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND c_nationkey = n_nationkey
  AND o_orderdate >= '%s' AND o_orderdate < '%s' AND l_returnflag = '%s'
GROUP BY c_custkey ORDER BY c_custkey`, date(y, m, 1), date(y2, m2, 1), v.pick(flags))
	}},
	{name: "Q10'", render: func(v draw) string {
		y, m, y2, m2 := window(v.Rand, 1993, 1996, 3)
		return fmt.Sprintf(`SELECT SUM(l_extendedprice) FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND c_nationkey = n_nationkey
  AND o_orderdate >= '%s' AND o_orderdate < '%s' AND l_returnflag = '%s'`,
			date(y, m, 1), date(y2, m2, 1), v.pick(flags))
	}},
	{name: "Q12", render: func(v draw) string {
		y, m, y2, m2 := window(v.Rand, 1993, 1996, 12)
		return fmt.Sprintf(`SELECT l_shipmode, COUNT(*) FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipdate < l_commitdate AND l_commitdate < l_receiptdate
  AND l_receiptdate >= '%s' AND l_receiptdate < '%s'
GROUP BY l_shipmode ORDER BY l_shipmode`, date(y, m, 1), date(y2, m2, 1))
	}},
	{name: "Q12'", render: func(v draw) string {
		y, m, y2, m2 := window(v.Rand, 1993, 1996, 12)
		return fmt.Sprintf(`SELECT COUNT(*) FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipdate < l_commitdate AND l_commitdate < l_receiptdate
  AND l_receiptdate >= '%s' AND l_receiptdate < '%s' AND l_shipmode = '%s'`,
			date(y, m, 1), date(y2, m2, 1), v.pick(shipmodes))
	}},
	{name: "Q6'", render: func(v draw) string {
		y, m, y2, m2 := window(v.Rand, 1993, 1996, 12)
		d := v.Range(2, 9)
		return fmt.Sprintf(`SELECT SUM(l_extendedprice) FROM lineitem
WHERE l_shipdate >= '%s' AND l_shipdate < '%s'
  AND l_discount BETWEEN %d AND %d AND l_quantity < %d`,
			date(y, m, 1), date(y2, m2, 1), d-1, d+1, v.Range(24, 25))
	}},
	{name: "Q14'", render: func(v draw) string {
		y, m := v.Range(1993, 1997), v.Range(1, 12)
		y2, m2 := addMonths(y, m, 1)
		return fmt.Sprintf(`SELECT SUM(l_extendedprice) FROM lineitem, part
WHERE l_partkey = p_partkey AND p_type LIKE '%s%%'
  AND l_shipdate >= '%s' AND l_shipdate < '%s'`, v.pick(types1), date(y, m, 1), date(y2, m2, 1))
	}},
	{name: "Q19'", render: func(v draw) string {
		var arms []string
		for i, lo := range []int{1, 10, 20} {
			arms = append(arms, fmt.Sprintf("(p_brand = '%s' AND p_container = '%s' AND l_quantity BETWEEN %d AND %d)",
				v.pickAt(brands, i), containers[(2*i+v.Intn(2))%len(containers)], lo, lo+10))
		}
		return `SELECT SUM(l_extendedprice) FROM lineitem, part
WHERE l_partkey = p_partkey AND (` + strings.Join(arms, "\n   OR ") + ")"
	}},
}

// templatesExcept returns the TPC-H templates minus the named ones.
func templatesExcept(names ...string) []template {
	var out []template
	for _, t := range tpchTemplates {
		skip := false
		for _, n := range names {
			skip = skip || t.name == n
		}
		if !skip {
			out = append(out, t)
		}
	}
	return out
}

// Stream draws n statements from the templates, deterministically from
// seed. New statements cycle through the templates in order, so every
// template appears equally often and at the same positions for every
// seed; the seed draws each statement's dates and numbers and where the
// walk through the categorical constants starts. When repeatEvery is
// positive, every repeatEvery-th request instead repeats a uniformly
// chosen earlier statement. Statements drawn as new are distinct from
// every earlier one (a collision is redrawn).
func Stream(seed uint64, n int, tmpls []template, repeatEvery int) []Statement {
	r := xrand.New(seed*0x9E3779B97F4A7C15 + 1)
	seen := map[string]bool{}
	start := r.Intn(420) // 420 is a multiple of every cycled list's length
	var out, distinct []Statement
	for len(out) < n {
		if repeatEvery > 0 && len(out)%repeatEvery == repeatEvery-1 {
			out = append(out, distinct[r.Intn(len(distinct))])
			continue
		}
		t := tmpls[len(distinct)%len(tmpls)]
		v := draw{Rand: r, k: start + len(distinct)/len(tmpls)}
		st := Statement{Template: t.name, SQL: t.render(v)}
		for try := 0; seen[st.SQL] && try < 64; try++ {
			st.SQL = t.render(v)
		}
		seen[st.SQL] = true
		distinct = append(distinct, st)
		out = append(out, st)
	}
	return out
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(r *xrand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// MedigapOrder returns the twelve Medigap statements Q1m…Q12m in a
// seeded order (one epoch of the dc_refresh workload).
func MedigapOrder(r *xrand.Rand) []Statement {
	qs := medigap.Queries()
	out := make([]Statement, len(qs))
	for i, j := range shuffled(r, len(qs)) {
		out[i] = Statement{Template: qs[j].Name, SQL: qs[j].SQL}
	}
	return out
}
