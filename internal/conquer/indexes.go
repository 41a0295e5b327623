package conquer

import "aggcavsat/internal/db"

// Indexes is the executor's handle on an instance's key partitions. A
// relation's key-equal groups and its child lookup by key are its
// partition on its key (db.Instance.Partition): one memo on the
// instance, invalidated by fact count like db.Instance.KeyEqualGroups
// and shared with the SAT engine's evaluator, instead of a map of
// per-key slices per Indexes.
//
// All methods are safe for concurrent use; a Planner shares one Indexes
// across every query served against its instance.
type Indexes struct {
	in *db.Instance
}

// NewIndexes creates the handle over the instance. Nothing is built
// until the first Execute needs it.
func NewIndexes(in *db.Instance) *Indexes { return &Indexes{in: in} }

// keyPartition returns the relation's partition on its key, or nil for
// a relation without a key or not in the instance's schema (neither
// passes Analyze).
func (ix *Indexes) keyPartition(rel *db.RelationSchema) *db.Partition {
	id, ok := ix.in.Schema().RelID(rel.Name)
	if !ok || !rel.HasKey() {
		return nil
	}
	return ix.in.Partition(id, rel.Key)
}
