package db

// BuildKeyIndex builds the key index afresh, bypassing the memo, for
// the external tests and benchmarks of this package.
func (in *Instance) BuildKeyIndex() *KeyIndex { return in.buildKeyIndex(^uint64(0)) }
