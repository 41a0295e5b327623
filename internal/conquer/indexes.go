package conquer

import (
	"sync"

	"aggcavsat/internal/db"
)

// keyBucket is one key-equal group reachable under a key-projection
// hash: repr is any member (all members agree on the key by
// construction), used to verify exact key equality on a hash hit.
type keyBucket struct {
	repr  db.FactID
	facts []db.FactID
}

// relIndex is the lookup structure for one relation: its fact list, a
// hash map from key projection to the key-equal group members sharing
// it, and the group member lists themselves in enumeration order (so
// Execute never re-derives the partition with per-fact key strings).
//
// byKey is keyed by db.Instance.HashRowOn hashes over the relation's
// key positions — dictionary-code folds under the columnar layout, so
// building and probing it never touches string bytes. Hashes are not
// injective: lookups walk the bucket chain and verify against repr.
type relIndex struct {
	facts  []db.FactID
	byKey  map[uint64][]keyBucket
	groups [][]db.FactID
}

// lookup returns the members of the key-equal group whose key
// projection equals cells (ordered by key position; h is their HashCell
// fold), or nil.
func (ri *relIndex) lookup(in *db.Instance, keyPos []int, h uint64, cells []db.Cell) []db.FactID {
	for _, b := range ri.byKey[h] {
		match := true
		repr := in.Row(b.repr)
		for i, kp := range keyPos {
			if repr.Cell(kp) != cells[i] {
				match = false
				break
			}
		}
		if match {
			return b.facts
		}
	}
	return nil
}

// Indexes memoizes the per-relation lookup maps the executor joins
// through. Instances are append-only, so the memo is keyed by fact
// count — the same invalidation rule as db.Instance.KeyEqualGroups,
// which supplies the grouping (one hash-verified partition shared with
// the SAT engine instead of a fresh string-keyed map per call).
//
// All methods are safe for concurrent use; a Planner shares one Indexes
// across every query served against its instance.
type Indexes struct {
	in *db.Instance

	mu     sync.Mutex
	nFacts int
	rels   map[string]*relIndex
}

// NewIndexes creates an empty memo over the instance. Nothing is built
// until the first Execute needs it.
func NewIndexes(in *db.Instance) *Indexes { return &Indexes{in: in} }

// tables returns the per-relation lookup maps, rebuilding them only
// when facts were appended since the last call. Keys are lowercase
// relation names (matching db.KeyEqualGroup.Rel); callers must treat
// the result as read-only.
func (ix *Indexes) tables() map[string]*relIndex {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := ix.in.NumFacts()
	if ix.rels != nil && n == ix.nFacts {
		return ix.rels
	}
	schema := ix.in.Schema()
	rels := make(map[string]*relIndex)
	for _, g := range ix.in.KeyEqualGroups() {
		ri := rels[g.Rel]
		if ri == nil {
			ri = &relIndex{facts: ix.in.RelFacts(g.Rel), byKey: map[uint64][]keyBucket{}}
			rels[g.Rel] = ri
		}
		rs := schema.Relation(g.Rel)
		if !rs.HasKey() {
			// Keyless relations never pass Analyze; keep their fact list
			// for completeness but skip the (meaningless) key map.
			continue
		}
		// One key hash per group instead of one string per fact: the
		// group's members agree on the key projection by construction.
		repr := g.Facts[0]
		h := ix.in.HashRowOn(repr, rs.Key, db.HashSeed)
		ri.byKey[h] = append(ri.byKey[h], keyBucket{repr: repr, facts: g.Facts})
		ri.groups = append(ri.groups, g.Facts)
	}
	// Relations with zero facts have no groups; materialize empty
	// entries so lookups distinguish "empty relation" from "stale memo".
	for _, rs := range schema.Relations() {
		if rels[rs.Canon()] == nil {
			rels[rs.Canon()] = &relIndex{byKey: map[uint64][]keyBucket{}}
		}
	}
	ix.nFacts = n
	ix.rels = rels
	return rels
}
