package db

import (
	"fmt"
	"strings"
)

// RelID is a dense relation identifier, assigned in AddRelation order
// starting at 0. Instances key their per-relation storage by RelID, so
// fact→relation bookkeeping is an array index instead of a map lookup
// on a (lower-cased) name string.
type RelID int

// Attribute describes one column of a relation.
type Attribute struct {
	Name string
	Kind Kind
}

// RelationSchema describes one relation: its name, attributes, and the
// positions of its key attributes (empty means "no key constraint").
//
// Following the paper, at most one key constraint per relation is modeled
// here; richer constraints (functional dependencies, denial constraints)
// live in internal/constraints.
type RelationSchema struct {
	Name  string
	Attrs []Attribute
	Key   []int // positions of the key attributes, sorted ascending

	id    RelID  // dense ID, assigned by Schema.AddRelation
	canon string // lower-cased Name, computed once at registration
}

// ID returns the relation's dense identifier within its schema.
func (r *RelationSchema) ID() RelID { return r.id }

// Canon returns the canonical (lower-case) relation name, computed once
// when the relation was registered — the name facts and key-equal
// groups carry.
func (r *RelationSchema) Canon() string { return r.canon }

// AttrIndex returns the position of the named attribute, or -1.
func (r *RelationSchema) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if strings.EqualFold(a.Name, name) {
			return i
		}
	}
	return -1
}

// Arity returns the number of attributes.
func (r *RelationSchema) Arity() int { return len(r.Attrs) }

// HasKey reports whether the relation declares a key constraint.
func (r *RelationSchema) HasKey() bool { return len(r.Key) > 0 }

// KeyNames returns the names of the key attributes.
func (r *RelationSchema) KeyNames() []string {
	names := make([]string, len(r.Key))
	for i, p := range r.Key {
		names[i] = r.Attrs[p].Name
	}
	return names
}

func (r *RelationSchema) validate() error {
	if r.Name == "" {
		return fmt.Errorf("db: relation with empty name")
	}
	if len(r.Attrs) == 0 {
		return fmt.Errorf("db: relation %s has no attributes", r.Name)
	}
	seen := make(map[string]bool, len(r.Attrs))
	for _, a := range r.Attrs {
		lc := strings.ToLower(a.Name)
		if seen[lc] {
			return fmt.Errorf("db: relation %s: duplicate attribute %s", r.Name, a.Name)
		}
		seen[lc] = true
	}
	prev := -1
	for _, p := range r.Key {
		if p < 0 || p >= len(r.Attrs) {
			return fmt.Errorf("db: relation %s: key position %d out of range", r.Name, p)
		}
		if p <= prev {
			return fmt.Errorf("db: relation %s: key positions must be strictly ascending", r.Name)
		}
		prev = p
	}
	return nil
}

// Schema is a collection of relation schemas addressed by name
// (case-insensitively) or by dense RelID.
type Schema struct {
	rels  map[string]*RelationSchema
	byID  []*RelationSchema // dense, AddRelation order
	ids   map[string]RelID  // as-registered and canonical names → ID
	order []string          // insertion order of canonical names, for determinism
}

// NewSchema creates an empty schema.
func NewSchema() *Schema {
	return &Schema{
		rels: make(map[string]*RelationSchema),
		ids:  make(map[string]RelID),
	}
}

// AddRelation registers a relation schema. Key positions must be strictly
// ascending; names are unique case-insensitively.
func (s *Schema) AddRelation(r *RelationSchema) error {
	if err := r.validate(); err != nil {
		return err
	}
	lc := strings.ToLower(r.Name)
	if _, dup := s.rels[lc]; dup {
		return fmt.Errorf("db: duplicate relation %s", r.Name)
	}
	r.id = RelID(len(s.byID))
	r.canon = lc
	s.rels[lc] = r
	s.byID = append(s.byID, r)
	// Register both spellings so RelID lookups hit without lower-casing
	// first; mixed-case call sites fall back to one ToLower.
	s.ids[lc] = r.id
	if r.Name != lc {
		s.ids[r.Name] = r.id
	}
	s.order = append(s.order, lc)
	return nil
}

// MustAddRelation is AddRelation that panics on error; for package-level
// schema literals in generators and tests.
func (s *Schema) MustAddRelation(r *RelationSchema) {
	if err := s.AddRelation(r); err != nil {
		panic(err)
	}
}

// Relation returns the schema of the named relation, or nil.
func (s *Schema) Relation(name string) *RelationSchema {
	if id, ok := s.ids[name]; ok {
		return s.byID[id]
	}
	return s.rels[strings.ToLower(name)]
}

// RelID resolves a relation name (case-insensitively) to its dense ID.
// The fast path is a single map hit on the exact spelling; only unseen
// spellings pay a ToLower.
func (s *Schema) RelID(name string) (RelID, bool) {
	if id, ok := s.ids[name]; ok {
		return id, true
	}
	id, ok := s.ids[strings.ToLower(name)]
	return id, ok
}

// RelationByID returns the relation schema with the given dense ID.
func (s *Schema) RelationByID(id RelID) *RelationSchema { return s.byID[id] }

// NumRelations returns the number of registered relations.
func (s *Schema) NumRelations() int { return len(s.byID) }

// Relations returns all relation schemas in insertion order.
func (s *Schema) Relations() []*RelationSchema {
	out := make([]*RelationSchema, 0, len(s.byID))
	out = append(out, s.byID...)
	return out
}
