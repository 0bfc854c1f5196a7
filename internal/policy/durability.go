package policy

import "fmt"

// Durability is the store's WAL hook (internal/wal implements it). Policy
// mutations are logged LOGICALLY — one AddPolicy record carrying the whole
// policy, one RevokePolicy record carrying the id — rather than as rP/rOC
// row mutations, so a replayed policy is rebuilt through the store's own
// persist path and the no-half-commit invariant (cache, rP and rOC agree)
// holds on recovery exactly as it does live.
//
// The commit-closure contract matches engine.WAL: Append* runs check under
// the log's serialisation lock, appends and syncs the record, and returns
// with the lock held; the store applies the mutation and releases it via
// commit. check may be nil when the operation was fully validated before
// the call.
type Durability interface {
	AppendPolicyInsert(p *Policy, check func() error) (commit func(), err error)
	AppendPolicyRevoke(id int64, check func() error) (commit func(), err error)
}

// SetDurability attaches the WAL hook. Attach at wiring time, after any
// recovery replay: ApplyLogged and ApplyRevokeLogged must run unhooked or
// replay would re-log its own input.
func (s *Store) SetDurability(d Durability) {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	s.dur = d
}

// durability returns the attached hook, or nil.
func (s *Store) durability() Durability {
	s.durMu.RLock()
	defer s.durMu.RUnlock()
	return s.dur
}

// ConditionText is one object condition in the store's textual
// serialisation: ⟨attr, op, val⟩ with val as SQL literal text — the same
// triples the rOC relation persists (Table 5) and the WAL's AddPolicy
// record embeds.
type ConditionText struct {
	Attr, Op, Val string
}

// MarshalConditionText serialises a policy's conditions (owner triple
// first, ranges split in two) for the WAL's AddPolicy record.
func MarshalConditionText(p *Policy) ([]ConditionText, error) {
	return conditionTriples(p)
}

// UnmarshalConditionText rebuilds ObjectConditions from serialised
// triples, dropping the owner triple (implied by the policy's Owner).
func UnmarshalConditionText(ts []ConditionText) ([]ObjectCondition, error) {
	return parseConditionTriples(ts)
}

// ApplyLogged re-inserts a recovered policy during WAL replay, keeping its
// logged id and timestamp. It takes Insert's persist path but assigns
// nothing: the id generator and clock only
// ratchet forward past the logged values. The store must not have a
// durability hook attached yet.
func (s *Store) ApplyLogged(p *Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.ID <= 0 {
		return fmt.Errorf("policy: replayed policy has no id")
	}
	if _, exists := s.ByID(p.ID); exists {
		return fmt.Errorf("policy: replayed policy %d already present", p.ID)
	}
	s.meta.Lock()
	if p.ID >= s.nextID {
		s.nextID = p.ID + 1
	}
	if p.InsertedAt > s.clock {
		s.clock = p.InsertedAt
	}
	s.meta.Unlock()
	rows, err := conditionRows(p)
	if err != nil {
		return err
	}
	return s.persist(p, rows)
}

// ApplyRevokeLogged replays a revocation. ok is false when the id is
// unknown; since Revoke validates existence under the log lock before
// appending, a replayed revoke of a missing policy indicates a diverged
// log and the caller decides how hard to fail.
func (s *Store) ApplyRevokeLogged(id int64) (p *Policy, ok bool) {
	p, err := s.applyRevoke(id)
	if err != nil {
		return nil, false
	}
	return p, true
}
