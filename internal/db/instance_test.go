package db

import (
	"bytes"
	"strings"
	"testing"
)

// bankSchema builds the running-example schema of the paper (Table I).
func bankSchema() *Schema {
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{
		Name: "Customer",
		Attrs: []Attribute{
			{Name: "CID", Kind: KindString},
			{Name: "NAME", Kind: KindString},
			{Name: "CITY", Kind: KindString},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&RelationSchema{
		Name: "Accounts",
		Attrs: []Attribute{
			{Name: "ACCID", Kind: KindString},
			{Name: "TYPE", Kind: KindString},
			{Name: "CITY", Kind: KindString},
			{Name: "BAL", Kind: KindInt},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&RelationSchema{
		Name: "CustAcc",
		Attrs: []Attribute{
			{Name: "CID", Kind: KindString},
			{Name: "ACCID", Kind: KindString},
		},
		Key: []int{0, 1},
	})
	return s
}

// bankInstance builds the fourteen facts f1..f14 of Table I. Fact IDs are
// 0-based: f1 has ID 0, ..., f14 has ID 13.
func bankInstance() *Instance {
	in := NewInstance(bankSchema())
	in.MustInsert("Customer", Str("C1"), Str("John"), Str("LA"))
	in.MustInsert("Customer", Str("C2"), Str("Mary"), Str("LA"))
	in.MustInsert("Customer", Str("C2"), Str("Mary"), Str("SF"))
	in.MustInsert("Customer", Str("C3"), Str("Don"), Str("SF"))
	in.MustInsert("Customer", Str("C4"), Str("Jen"), Str("LA"))
	in.MustInsert("Accounts", Str("A1"), Str("Check."), Str("LA"), Int(900))
	in.MustInsert("Accounts", Str("A2"), Str("Check."), Str("LA"), Int(1000))
	in.MustInsert("Accounts", Str("A3"), Str("Saving"), Str("SJ"), Int(1200))
	in.MustInsert("Accounts", Str("A3"), Str("Saving"), Str("SF"), Int(-100))
	in.MustInsert("Accounts", Str("A4"), Str("Saving"), Str("SJ"), Int(300))
	in.MustInsert("CustAcc", Str("C1"), Str("A1"))
	in.MustInsert("CustAcc", Str("C2"), Str("A2"))
	in.MustInsert("CustAcc", Str("C2"), Str("A3"))
	in.MustInsert("CustAcc", Str("C3"), Str("A4"))
	return in
}

func TestSchemaValidation(t *testing.T) {
	s := NewSchema()
	if err := s.AddRelation(&RelationSchema{Name: "", Attrs: []Attribute{{Name: "a"}}}); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.AddRelation(&RelationSchema{Name: "R"}); err == nil {
		t.Error("no attributes accepted")
	}
	if err := s.AddRelation(&RelationSchema{
		Name:  "R",
		Attrs: []Attribute{{Name: "a", Kind: KindInt}, {Name: "A", Kind: KindInt}},
	}); err == nil {
		t.Error("case-insensitive duplicate attribute accepted")
	}
	if err := s.AddRelation(&RelationSchema{
		Name:  "R",
		Attrs: []Attribute{{Name: "a", Kind: KindInt}},
		Key:   []int{1},
	}); err == nil {
		t.Error("out-of-range key accepted")
	}
	if err := s.AddRelation(&RelationSchema{
		Name:  "R",
		Attrs: []Attribute{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindInt}},
		Key:   []int{1, 0},
	}); err == nil {
		t.Error("non-ascending key accepted")
	}
	ok := &RelationSchema{Name: "R", Attrs: []Attribute{{Name: "a", Kind: KindInt}}, Key: []int{0}}
	if err := s.AddRelation(ok); err != nil {
		t.Fatalf("valid relation rejected: %v", err)
	}
	if err := s.AddRelation(&RelationSchema{Name: "r", Attrs: []Attribute{{Name: "a", Kind: KindInt}}}); err == nil {
		t.Error("case-insensitive duplicate relation accepted")
	}
	if s.Relation("R") == nil || s.Relation("r") == nil {
		t.Error("case-insensitive lookup failed")
	}
}

func TestRelationSchemaHelpers(t *testing.T) {
	rs := bankSchema().Relation("accounts")
	if rs.Arity() != 4 {
		t.Errorf("Arity = %d", rs.Arity())
	}
	if rs.AttrIndex("bal") != 3 || rs.AttrIndex("BAL") != 3 {
		t.Error("AttrIndex case-insensitivity")
	}
	if rs.AttrIndex("nope") != -1 {
		t.Error("AttrIndex missing")
	}
	if !rs.HasKey() {
		t.Error("HasKey")
	}
	if got := rs.KeyNames(); len(got) != 1 || got[0] != "ACCID" {
		t.Errorf("KeyNames = %v", got)
	}
}

func TestInsertValidation(t *testing.T) {
	in := NewInstance(bankSchema())
	if _, err := in.Insert("nope", Tuple{Str("x")}); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := in.Insert("Customer", Tuple{Str("x")}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := in.Insert("Customer", Tuple{Int(1), Str("a"), Str("b")}); err == nil {
		t.Error("wrong kind accepted")
	}
	// NULL allowed anywhere; INT coerces into FLOAT columns.
	if _, err := in.Insert("Customer", Tuple{Str("C9"), Null(), Str("LA")}); err != nil {
		t.Errorf("NULL rejected: %v", err)
	}
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{Name: "F", Attrs: []Attribute{{Name: "x", Kind: KindFloat}}})
	fin := NewInstance(s)
	if _, err := fin.Insert("F", Tuple{Int(3)}); err != nil {
		t.Errorf("INT into FLOAT column rejected: %v", err)
	}
}

func TestInstanceBasics(t *testing.T) {
	in := bankInstance()
	if in.NumFacts() != 14 {
		t.Fatalf("NumFacts = %d, want 14", in.NumFacts())
	}
	if in.RelSize("customer") != 5 || in.RelSize("ACCOUNTS") != 5 || in.RelSize("CustAcc") != 4 {
		t.Error("RelSize mismatch")
	}
	f := tupleOf(in, 7) // f8 = (A3, Saving, SJ, 1200)
	if in.Schema().RelationByID(in.RelOf(7)).Canon() != "accounts" || !f[0].Equal(Str("A3")) || f[3].AsInt() != 1200 {
		t.Errorf("fact 7 = %v", f)
	}
}

func TestKeyEqualGroups(t *testing.T) {
	in := bankInstance()
	groups := in.KeyEqualGroups()
	// 4 customer groups + 4 account groups + 4 custacc groups = 12
	if len(groups) != 12 {
		t.Fatalf("got %d groups, want 12", len(groups))
	}
	var violating []KeyEqualGroup
	for _, g := range groups {
		if g.Violating() {
			violating = append(violating, g)
		}
	}
	if len(violating) != 2 {
		t.Fatalf("got %d violating groups, want 2", len(violating))
	}
	// f2,f3 (IDs 1,2) and f8,f9 (IDs 7,8)
	if violating[0].Facts[0] != 1 || violating[0].Facts[1] != 2 {
		t.Errorf("first violating group = %v", violating[0].Facts)
	}
	if violating[1].Facts[0] != 7 || violating[1].Facts[1] != 8 {
		t.Errorf("second violating group = %v", violating[1].Facts)
	}
	// Determinism: groups sorted by smallest fact ID.
	for i := 1; i < len(groups); i++ {
		if groups[i-1].Facts[0] >= groups[i].Facts[0] {
			t.Fatal("groups not ordered by smallest fact ID")
		}
	}
}

func TestKeyEqualGroupsNoKey(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{Name: "R", Attrs: []Attribute{{Name: "a", Kind: KindInt}}})
	in := NewInstance(s)
	in.MustInsert("R", Int(1))
	in.MustInsert("R", Int(1)) // duplicate but no key: still consistent
	groups := in.KeyEqualGroups()
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 singletons", len(groups))
	}
	for _, g := range groups {
		if g.Violating() {
			t.Error("keyless relation reported a violation")
		}
	}
}

func TestKeyInconsistencyStats(t *testing.T) {
	in := bankInstance()
	stats := in.KeyInconsistency()
	if len(stats) != 3 {
		t.Fatalf("got %d stats, want 3", len(stats))
	}
	cust := stats[0]
	if cust.Rel != "Customer" || cust.Facts != 5 || cust.ViolatingFacts != 2 ||
		cust.Groups != 4 || cust.LargestGroup != 2 || cust.ViolatingGroups != 1 {
		t.Errorf("customer stats = %+v", cust)
	}
	if p := cust.Percent(); p < 39.9 || p > 40.1 {
		t.Errorf("customer inconsistency = %v%%, want 40%%", p)
	}
	if (InconsistencyStats{}).Percent() != 0 {
		t.Error("empty relation should be 0% inconsistent")
	}
}

func TestSubset(t *testing.T) {
	in := bankInstance()
	// Keep a repair: drop f3 (ID 2) and f9 (ID 8).
	rep := in.Subset(func(id FactID) bool { return id != 2 && id != 8 })
	if rep.NumFacts() != 12 {
		t.Fatalf("repair has %d facts, want 12", rep.NumFacts())
	}
	for _, g := range rep.KeyEqualGroups() {
		if g.Violating() {
			t.Error("repair still violates a key")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := bankInstance()
	var buf bytes.Buffer
	if err := in.WriteCSV("Accounts", &buf); err != nil {
		t.Fatal(err)
	}
	out := NewInstance(bankSchema())
	if err := out.ReadCSV("Accounts", &buf); err != nil {
		t.Fatal(err)
	}
	if out.RelSize("Accounts") != 5 {
		t.Fatalf("round trip lost rows: %d", out.RelSize("Accounts"))
	}
	for i, id := range out.RelFacts("Accounts") {
		want := tupleOf(in, in.RelFacts("Accounts")[i])
		if got := tupleOf(out, id); !got.Equal(want) {
			t.Errorf("row %d: got %v, want %v", i, got, want)
		}
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	in := NewInstance(bankSchema())
	if err := in.ReadCSV("Customer", strings.NewReader("CID,WHO,CITY\n")); err == nil {
		t.Error("unknown column accepted")
	}
	if err := in.ReadCSV("Customer", strings.NewReader("CID,CID,CITY\n")); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := in.ReadCSV("Customer", strings.NewReader("CID,NAME\n")); err == nil {
		t.Error("missing column accepted")
	}
	if err := in.ReadCSV("nope", strings.NewReader("x\n")); err == nil {
		t.Error("unknown relation accepted")
	}
	// Column order in the file is free.
	err := in.ReadCSV("Customer", strings.NewReader("CITY,CID,NAME\nLA,C9,Zoe\n"))
	if err != nil {
		t.Fatalf("reordered columns rejected: %v", err)
	}
	f := tupleOf(in, in.RelFacts("Customer")[0])
	if !f[0].Equal(Str("C9")) || !f[2].Equal(Str("LA")) {
		t.Errorf("reordered parse wrong: %v", f)
	}
}

func TestCSVBadValue(t *testing.T) {
	in := NewInstance(bankSchema())
	err := in.ReadCSV("Accounts", strings.NewReader("ACCID,TYPE,CITY,BAL\nA1,Check.,LA,notanumber\n"))
	if err == nil {
		t.Error("bad INT value accepted")
	}
}

func TestSaveLoadDir(t *testing.T) {
	in := bankInstance()
	dir := t.TempDir()
	if err := in.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	out, err := LoadDir(bankSchema(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumFacts() != in.NumFacts() {
		t.Fatalf("LoadDir: got %d facts, want %d", out.NumFacts(), in.NumFacts())
	}
}
