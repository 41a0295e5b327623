package schemafile

import (
	"bytes"
	"strings"
	"testing"

	"aggcavsat/internal/db"
)

const sample = `
# bank schema
relation Cust (CID:string NAME:string CITY:string) key CID
relation Acc  (ACCID:string BAL:int) key ACCID
relation Notes (id:int text:string score:float)

fd Cust CID -> NAME CITY
`

func TestReadBasic(t *testing.T) {
	f, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	cust := f.Schema.Relation("Cust")
	if cust == nil || cust.Arity() != 3 || len(cust.Key) != 1 || cust.Key[0] != 0 {
		t.Fatalf("Cust = %+v", cust)
	}
	acc := f.Schema.Relation("acc")
	if acc == nil || acc.Attrs[1].Kind != db.KindInt {
		t.Fatalf("Acc = %+v", acc)
	}
	notes := f.Schema.Relation("Notes")
	if notes.HasKey() {
		t.Error("Notes should have no key")
	}
	if notes.Attrs[2].Kind != db.KindFloat {
		t.Error("float attribute mis-typed")
	}
	// fd CID -> NAME CITY expands to two denial constraints.
	if len(f.FDs) != 2 {
		t.Fatalf("FDs = %d, want 2", len(f.FDs))
	}
	for _, dc := range f.FDs {
		if err := dc.Validate(f.Schema); err != nil {
			t.Errorf("%s: %v", dc.Name, err)
		}
	}
}

func TestReadCompositeAndUnorderedKey(t *testing.T) {
	f, err := Read(strings.NewReader(
		"relation R (a:int b:int c:int) key c a\n"))
	if err != nil {
		t.Fatal(err)
	}
	rs := f.Schema.Relation("R")
	// Positions are normalized to ascending order.
	if len(rs.Key) != 2 || rs.Key[0] != 0 || rs.Key[1] != 2 {
		t.Fatalf("key = %v", rs.Key)
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"relation R a:int\n",                       // missing parens
		"relation (a:int)\n",                       // missing name
		"relation R (aint)\n",                      // missing type separator
		"relation R (a:blob)\n",                    // unknown type
		"relation R (a:int) key b\n",               // undeclared key attr
		"relation R (a:int) nonsense\n",            // trailing junk
		"relation R (a:int)\nrelation R (b:int)\n", // duplicate relation
		"fd R a -> b\n",                            // fd before/without relation
		"relation R (a:int b:int)\nfd R a b\n",     // fd missing arrow
		"relation R (a:int b:int)\nfd R a ->\n",    // fd missing rhs
		"relation R (a:int b:int)\nfd R a -> z\n",  // fd unknown attr
		"teleport R (a:int)\n",                     // unknown directive
	}
	for _, src := range bad {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("accepted: %q", src)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f.Schema, []string{"fd Cust CID -> NAME CITY"}); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatalf("round trip: %v\nfile:\n%s", err, buf.String())
	}
	if len(g.Schema.Relations()) != len(f.Schema.Relations()) {
		t.Error("relation count changed")
	}
	if len(g.FDs) != len(f.FDs) {
		t.Errorf("FDs = %d, want %d", len(g.FDs), len(f.FDs))
	}
	for _, rs := range f.Schema.Relations() {
		got := g.Schema.Relation(rs.Name)
		if got == nil || got.Arity() != rs.Arity() || len(got.Key) != len(rs.Key) {
			t.Errorf("relation %s changed across round trip", rs.Name)
		}
	}
}
