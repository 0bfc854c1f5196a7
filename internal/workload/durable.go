package workload

import (
	"math/rand"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/wal"
)

// DurableDemo is Demo plus a durability subsystem: mutations are
// write-ahead logged into a data directory and a restart recovers them.
// cmd/sieve-server builds one when -data-dir is set.
type DurableDemo struct {
	Demo
	Manager *wal.Manager
	// Recovered is nil on a fresh boot and carries replay statistics
	// after a restart.
	Recovered *wal.Recovered
}

// GuardSkipTables returns nil: the middleware keeps its guard cache in
// process and owns no derived relation to keep out of the log. It remains
// only because benchmark/inputs.go calls it and a PR outside [benchmark] may
// not edit that module; the next [benchmark] PR deletes both (ROADMAP).
func GuardSkipTables() []string { return nil }

// NewDurableDemo opens (or creates) the durable demo under dir. A fresh
// directory seeds the test campus and snapshots it; an existing one is
// recovered — snapshot restore plus WAL replay — and serves exactly the
// acknowledged pre-crash state.
func NewDurableDemo(d engine.Dialect, dir string, opts wal.Options) (*DurableDemo, error) {
	m, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	has, err := m.HasState()
	if err != nil {
		return nil, err
	}
	if !has {
		demo, err := NewDemo(d)
		if err != nil {
			return nil, err
		}
		if err := m.Start(demo.Campus.DB, demo.M.ProtectedRelations); err != nil {
			return nil, err
		}
		attachHooks(m, demo.M)
		return &DurableDemo{Demo: *demo, Manager: m}, nil
	}

	db := engine.New(d)
	rec, err := m.Recover(db)
	if err != nil {
		return nil, err
	}
	campus := RehydrateCampus(TestCampusConfig(), db)
	mw, err := core.New(rec.Store, core.WithGroups(campus.Groups()))
	if err != nil {
		return nil, err
	}
	// Re-protect before the WAL starts: these Protects re-establish the
	// recovered perimeter, they are not new decisions to re-log.
	for _, rel := range rec.Protected {
		if err := mw.Protect(rel); err != nil {
			return nil, err
		}
	}
	if err := m.Start(db, mw.ProtectedRelations); err != nil {
		return nil, err
	}
	attachHooks(m, mw)
	demo := Demo{Campus: campus, Policies: rec.Store.All(), M: mw}
	return &DurableDemo{Demo: demo, Manager: m, Recovered: rec}, nil
}

// attachHooks wires the WAL into all three mutation surfaces. Only after
// this point do mutations log; everything before (seed load or recovery
// replay plus re-protection) is already covered by snapshot + log.
func attachHooks(m *wal.Manager, mw *core.Middleware) {
	mw.DB().SetWAL(m)
	mw.Store().SetDurability(m)
	mw.SetDurability(m)
}

// RehydrateCampus rebuilds the Campus scaffolding around a recovered
// database. Heaps and indexes come from the durable store; the user
// roster and group memberships — in-memory generation artifacts — are
// regenerated deterministically from the config seed. generateUsers is
// the first consumer of the seeded stream, so the roster equals the one
// the original boot produced.
func RehydrateCampus(cfg CampusConfig, db *engine.DB) *Campus {
	c := &Campus{Cfg: cfg, DB: db, groups: policy.StaticGroups{}}
	c.generateUsers(rand.New(rand.NewSource(cfg.Seed)))
	if t, ok := db.Table(TableWiFi); ok {
		c.NumEvents = t.NumRows()
	}
	return c
}
