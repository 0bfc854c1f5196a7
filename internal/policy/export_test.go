package policy

// OwnersCovered returns the number of distinct owners with at least one
// policy in the set.
func (cs *CompiledSet) OwnersCovered() int { return len(cs.byOwner) }
