package tpch

import (
	"fmt"

	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

// Cardinalities at scale factor 1, per the TPC-H specification.
const (
	baseSupplier = 10_000
	baseCustomer = 150_000
	basePart     = 200_000
	basePartSupp = 800_000
	baseOrders   = 1_500_000
	baseLineitem = 6_000_000 // ~4 lines per order on average
)

var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	// nationRegion maps each nation to its region, as in DBGen.
	nationRegion = []int{
		0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1,
	}
	segments    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes   = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	types1      = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	types2      = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	types3      = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	brands      = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#23", "Brand#34", "Brand#45", "Brand#55"}
)

// Sizes reports the per-relation base (repair) cardinalities at the
// given scale factor.
type Sizes struct {
	Supplier, Customer, Part, PartSupp, Orders, Lineitem int
}

// SizesAt computes the scaled cardinalities (minimum 1 where the base is
// non-zero).
func SizesAt(sf float64) Sizes {
	n := func(base int) int {
		v := int(float64(base) * sf)
		if v < 1 {
			v = 1
		}
		return v
	}
	return Sizes{
		Supplier: n(baseSupplier),
		Customer: n(baseCustomer),
		Part:     n(basePart),
		PartSupp: n(basePartSupp),
		Orders:   n(baseOrders),
		Lineitem: n(baseLineitem),
	}
}

// Generate produces a consistent TPC-H instance at the scale factor,
// deterministically from the seed. Monetary values are integer cents;
// dates are ISO strings between 1992-01-01 and 1998-12-31.
func Generate(sf float64, seed uint64) *db.Instance {
	r := xrand.New(seed)
	sz := SizesAt(sf)
	in := db.NewInstance(Schema())

	for i, name := range regionNames {
		in.MustInsert("region", db.Int(int64(i)), db.Str(name))
	}
	for i, name := range nationNames {
		in.MustInsert("nation", db.Int(int64(i)), db.Str(name), db.Int(int64(nationRegion[i])))
	}
	for i := 0; i < sz.Supplier; i++ {
		in.MustInsert("supplier",
			db.Int(int64(i)),
			db.Str(fmt.Sprintf("Supplier#%09d", i)),
			db.Int(int64(r.Intn(len(nationNames)))),
			db.Int(int64(r.Range(-99999, 999999))),
		)
	}
	for i := 0; i < sz.Customer; i++ {
		in.MustInsert("customer",
			db.Int(int64(i)),
			db.Str(fmt.Sprintf("Customer#%09d", i)),
			db.Int(int64(r.Intn(len(nationNames)))),
			db.Str(xrand.Pick(r, segments)),
			db.Int(int64(r.Range(-99999, 999999))),
		)
	}
	for i := 0; i < sz.Part; i++ {
		in.MustInsert("part",
			db.Int(int64(i)),
			db.Str(fmt.Sprintf("part %d", i)),
			db.Str(xrand.Pick(r, types1)+" "+xrand.Pick(r, types2)+" "+xrand.Pick(r, types3)),
			db.Int(int64(r.Range(1, 50))),
			db.Str(xrand.Pick(r, brands)),
			db.Str(xrand.Pick(r, containers1)+" "+xrand.Pick(r, containers2)),
			db.Int(int64(r.Range(90000, 200000))),
		)
	}
	for i := 0; i < sz.PartSupp; i++ {
		// Four suppliers per part, following DBGen's layout.
		pk := i % sz.Part
		sk := (i*7 + i/sz.Part) % sz.Supplier
		in.MustInsert("partsupp",
			db.Int(int64(pk)),
			db.Int(int64(sk)),
			db.Int(int64(r.Range(1, 9999))),
			db.Int(int64(r.Range(100, 100000))),
		)
	}
	for i := 0; i < sz.Orders; i++ {
		in.MustInsert("orders",
			db.Int(int64(i)),
			db.Int(int64(r.Intn(sz.Customer))),
			db.Str(xrand.Pick(r, []string{"O", "F", "P"})),
			db.Int(int64(r.Range(100000, 50000000))),
			db.Str(randDate(r)),
			db.Str(xrand.Pick(r, priorities)),
			db.Int(0),
		)
	}
	line := 0
	order := 0
	perOrder := make([]int, sz.Orders) // running line numbers keep keys unique
	for line < sz.Lineitem {
		// 1..7 lines per order, cycling through the orders.
		ok := order % sz.Orders
		nLines := r.Range(1, 7)
		for l := 1; l <= nLines && line < sz.Lineitem; l++ {
			perOrder[ok]++
			ship := randDate(r)
			in.MustInsert("lineitem",
				db.Int(int64(ok)),
				db.Int(int64(perOrder[ok])),
				db.Int(int64(r.Intn(sz.Part))),
				db.Int(int64(r.Intn(sz.Supplier))),
				db.Int(int64(r.Range(1, 50))),
				db.Int(int64(r.Range(100000, 9000000))),
				db.Int(int64(r.Range(0, 10))),
				db.Int(int64(r.Range(0, 8))),
				db.Str(xrand.Pick(r, []string{"A", "N", "R"})),
				db.Str(xrand.Pick(r, []string{"O", "F"})),
				db.Str(ship),
				db.Str(addDays(r, ship, 30)),
				db.Str(addDays(r, ship, 60)),
				db.Str(xrand.Pick(r, shipmodes)),
			)
			line++
		}
		order++
	}
	return in
}

// randDate produces an ISO date in [1992-01-01, 1998-12-31]. A flat
// 28-day month keeps the arithmetic trivial while preserving ordering.
func randDate(r *xrand.Rand) string {
	y := r.Range(1992, 1998)
	m := r.Range(1, 12)
	d := r.Range(1, 28)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// addDays returns a date between 1 and maxDelta days after the base,
// staying within the flat 28-day calendar.
func addDays(r *xrand.Rand, base string, maxDelta int) string {
	var y, m, d int
	fmt.Sscanf(base, "%d-%d-%d", &y, &m, &d)
	total := (y*12+m-1)*28 + d - 1 + r.Range(1, maxDelta)
	d = total%28 + 1
	mm := total / 28
	return fmt.Sprintf("%04d-%02d-%02d", mm/12, mm%12+1, d)
}

// DemoInstance builds the standard inconsistent DBGen instance used by
// the bench replay harness and the cavsatd -dbgen demo tenant: Generate
// at sf, then Inject with the Figure-1 group-size calibration ([2, 7])
// and the derived seed the bench Runner uses. Both sides share this
// constructor so a load replay against a server started with the same
// (sf, pct, seed) triple compares answers over the identical instance.
func DemoInstance(sf, pct float64, seed uint64) (*db.Instance, error) {
	return Inject(Generate(sf, seed), InjectOptions{
		Percent:  pct,
		MinGroup: 2,
		MaxGroup: 7,
		Seed:     seed + 1,
	})
}
