package db

// BuildKeyIndex builds the key index afresh, bypassing the memo, for
// the external tests and benchmarks of this package.
func (in *Instance) BuildKeyIndex() *KeyIndex {
	return in.buildKeyIndex(func(rel RelID, key []int) *Partition { return in.buildPartition(rel, key, ^uint64(0)) })
}

// BuildPartition builds a partition afresh, bypassing the memo.
func (in *Instance) BuildPartition(rel RelID, positions []int) *Partition {
	return in.buildPartition(rel, positions, ^uint64(0))
}
