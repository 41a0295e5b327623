package db

import (
	"fmt"
	"strings"
	"sync"
)

// FactID identifies a fact within an Instance. IDs are dense, start at 0,
// and never change once assigned; they double as SAT variable indices in
// internal/core (variable = FactID + 1).
type FactID int

// Instance is a (possibly inconsistent) database instance: a set of facts
// over a schema. Facts are append-only; deletion is expressed by building
// sub-instances (see Subset), which preserves fact identity — essential
// for the repair/assignment correspondence of the reductions.
//
// Facts live in per-relation column arenas with dictionary-interned
// strings (columnar.go). The Row/ValueAt/Hash* family reads columns and
// dictionary codes directly; RowView.Cell and the Dict's Cell methods
// (cell.go) carry a stored value as a pointer-free word.
type Instance struct {
	schema *Schema

	dict    *Dict
	rels    []*relColumns // dense by RelID
	factRel []uint32      // FactID → RelID
	factRow []uint32      // FactID → row within its relation
	nFacts  int

	byRel [][]FactID // dense by RelID; aliases rels[i].ids

	// dataVersion is the content fingerprint of a snapshot-loaded
	// instance (0 otherwise); frozen marks instances whose arenas alias
	// a read-only mapping, on which Insert must refuse to run.
	dataVersion uint64
	frozen      bool

	// groupMu guards the KeyEqualGroups memo. The partition is a pure
	// function of the fact list, and facts are append-only, so it is
	// rebuilt only when the fact count moved past the one it was built
	// at: repeated engines over one instance stop re-paying the
	// grouping, and an Insert invalidates the memo.
	groupMu  sync.Mutex
	keyIndex *KeyIndex

	// partMu guards the Partition memo: per relation, the partitions
	// built at fact count partsAt.
	partMu  sync.Mutex
	parts   [][]*Partition
	partsAt int
}

// NewInstance creates an empty instance over the given schema.
func NewInstance(schema *Schema) *Instance {
	in := &Instance{
		schema: schema,
		dict:   NewDict(),
		rels:   make([]*relColumns, schema.NumRelations()),
		byRel:  make([][]FactID, schema.NumRelations()),
	}
	for _, rs := range schema.Relations() {
		in.rels[rs.ID()] = newRelColumns(rs)
	}
	return in
}

// Schema returns the instance's schema.
func (in *Instance) Schema() *Schema { return in.schema }

// DataVersion returns the snapshot content fingerprint for instances
// loaded from a snapshot, and 0 for instances built in memory. Serving
// layers report it, so an operator can tell snapshot generations apart.
func (in *Instance) DataVersion() uint64 { return in.dataVersion }

// NumFacts returns the total number of facts.
func (in *Instance) NumFacts() int { return in.nFacts }

// Row returns an allocation-free view of one fact.
func (in *Instance) Row(id FactID) RowView {
	return RowView{dict: in.dict, rc: in.rels[in.factRel[id]], row: int(in.factRow[id])}
}

// ValueAt returns the value at attribute position pos of one fact.
func (in *Instance) ValueAt(id FactID, pos int) Value {
	rc := in.rels[in.factRel[id]]
	return rc.cols[pos].value(in.dict, int(in.factRow[id]))
}

// RelOf returns the dense RelID of the fact's relation.
func (in *Instance) RelOf(id FactID) RelID {
	return RelID(in.factRel[id])
}

// RelFacts returns the IDs of all facts of the named relation, in
// insertion order. Callers must not mutate the returned slice.
func (in *Instance) RelFacts(rel string) []FactID {
	id, ok := in.schema.RelID(rel)
	if !ok {
		return nil
	}
	return in.byRel[id]
}

// RelFactsByID is RelFacts addressed by dense RelID.
func (in *Instance) RelFactsByID(id RelID) []FactID { return in.byRel[id] }

// RelSize returns the number of facts in the named relation.
func (in *Instance) RelSize(rel string) int { return len(in.RelFacts(rel)) }

// HashRowOn folds the projection of one fact onto the given attribute
// positions into h. Within one instance it hashes exactly what
// EqualRowsOn compares: strings fold their dictionary code instead of
// their bytes (cheaper, and still collision-verified by every
// consumer). Hashes are therefore NOT comparable across instances —
// pair them with HashCell over the same instance's cells on the probe
// side.
func (in *Instance) HashRowOn(id FactID, positions []int, h uint64) uint64 {
	return in.rels[in.factRel[id]].hashRowOn(int(in.factRow[id]), positions, h)
}

// EqualRowsOn reports EqualExact of two facts' projections onto the
// given positions. Both facts must live in relations whose columns at
// those positions exist (the engine only compares facts of one
// relation, which always holds).
func (in *Instance) EqualRowsOn(a, b FactID, positions []int) bool {
	ra, rb := in.rels[in.factRel[a]], in.rels[in.factRel[b]]
	rowA, rowB := int(in.factRow[a]), int(in.factRow[b])
	for _, p := range positions {
		if ra.cols[p].cell(rowA) != rb.cols[p].cell(rowB) {
			return false
		}
	}
	return true
}

// CompareAt is Value.Compare between the same attribute position of two
// facts, reading columns directly (equal string codes short-circuit
// before any byte comparison).
func (in *Instance) CompareAt(a, b FactID, pos int) int {
	ra, rb := in.rels[in.factRel[a]], in.rels[in.factRel[b]]
	return in.dict.CompareCells(ra.cols[pos].cell(int(in.factRow[a])), rb.cols[pos].cell(int(in.factRow[b])))
}

// Dict returns the instance's string pool.
func (in *Instance) Dict() *Dict { return in.dict }

// Insert appends a fact to the named relation and returns its ID.
// The tuple arity and value kinds must match the relation schema
// (NULL is allowed in non-key positions).
func (in *Instance) Insert(rel string, t Tuple) (FactID, error) {
	rs := in.schema.Relation(rel)
	if rs == nil {
		return 0, fmt.Errorf("db: insert into unknown relation %s", rel)
	}
	if in.frozen {
		return 0, fmt.Errorf("db: insert into %s: snapshot-backed instance is immutable", rs.Name)
	}
	if len(t) != rs.Arity() {
		return 0, fmt.Errorf("db: insert into %s: got %d values, want %d", rs.Name, len(t), rs.Arity())
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		want := rs.Attrs[i].Kind
		if v.Kind() != want && !(want == KindFloat && v.Kind() == KindInt) {
			return 0, fmt.Errorf("db: insert into %s.%s: got %s, want %s",
				rs.Name, rs.Attrs[i].Name, v.Kind(), want)
		}
	}
	id := FactID(in.nFacts)
	rc := in.rels[rs.ID()]
	row := len(rc.ids)
	for i, v := range t {
		rc.cols[i].appendValue(in.dict, row, v)
	}
	rc.ids = append(rc.ids, id)
	in.factRel = append(in.factRel, uint32(rs.ID()))
	in.factRow = append(in.factRow, uint32(row))
	in.nFacts++
	in.byRel[rs.ID()] = rc.ids
	return id, nil
}

// MustInsert is Insert that panics on error; for tests and generators.
func (in *Instance) MustInsert(rel string, vals ...Value) FactID {
	id, err := in.Insert(rel, Tuple(vals))
	if err != nil {
		panic(err)
	}
	return id
}

// InconsistencyStats summarizes how inconsistent a relation is w.r.t. its
// key constraint.
type InconsistencyStats struct {
	Rel             string
	Facts           int
	ViolatingFacts  int // facts in key-equal groups of size >= 2
	Groups          int // number of key-equal groups (repair size)
	LargestGroup    int
	ViolatingGroups int
}

// Percent returns the fraction of facts involved in key violations, in
// percent, matching the paper's "degree of inconsistency".
func (s InconsistencyStats) Percent() float64 {
	if s.Facts == 0 {
		return 0
	}
	return 100 * float64(s.ViolatingFacts) / float64(s.Facts)
}

// KeyInconsistency computes per-relation inconsistency statistics.
func (in *Instance) KeyInconsistency() []InconsistencyStats {
	out := make([]InconsistencyStats, in.schema.NumRelations())
	for _, rs := range in.schema.Relations() {
		n := len(in.byRel[rs.ID()])
		out[rs.ID()] = InconsistencyStats{Rel: rs.Name, Facts: n, Groups: n, LargestGroup: min(n, 1)}
	}
	x := in.KeyEqualGroups()
	for g := 0; g < x.NumGroups(); g++ {
		members := x.Members(g)
		st := &out[in.RelOf(members[0])]
		st.Groups -= len(members) - 1
		st.LargestGroup = max(st.LargestGroup, len(members))
		st.ViolatingGroups++
		st.ViolatingFacts += len(members)
	}
	return out
}

// Subset materializes the sub-instance containing exactly the facts whose
// IDs satisfy keep. Fact IDs are
// reassigned densely in the new instance, so Subset is intended for
// baselines (exhaustive repairs) rather than for the SAT pipeline, which
// works with the original IDs throughout.
func (in *Instance) Subset(keep func(FactID) bool) *Instance {
	out := NewInstance(in.schema)
	var t Tuple // scratch: Insert copies the values into its columns
	n := in.NumFacts()
	for id := FactID(0); int(id) < n; id++ {
		if keep(id) {
			rs := in.schema.RelationByID(in.RelOf(id))
			t = t[:0]
			for p := 0; p < rs.Arity(); p++ {
				t = append(t, in.ValueAt(id, p))
			}
			if _, err := out.Insert(rs.Name, t); err != nil {
				panic(err) // same schema: cannot happen
			}
		}
	}
	return out
}

// String renders a compact multi-line description, for debugging.
func (in *Instance) String() string {
	var b strings.Builder
	for _, rs := range in.schema.Relations() {
		fmt.Fprintf(&b, "%s(%d facts)\n", rs.Name, in.RelSize(rs.Name))
	}
	return b.String()
}
