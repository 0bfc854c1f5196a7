package wal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/wal"
)

const testTable = "wifi"

func wifiRow(id, owner int64, ap string) storage.Row {
	return storage.Row{storage.NewInt(id), storage.NewInt(owner), storage.NewString(ap)}
}

// buildSeedDB builds a db with a small table, as the fresh
// bootstrap path does before the WAL starts. No *testing.T so the crash
// harness's re-exec'd child can seed the same world.
func buildSeedDB() (*engine.DB, error) {
	db := engine.New(engine.MySQL())
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "ap", Type: storage.KindString},
	)
	tab, err := db.CreateTable(testTable, schema)
	if err != nil {
		return nil, err
	}
	tab.SetSegmentSize(4) // several segments even at test scale
	for i := int64(0); i < 10; i++ {
		if err := db.Insert(testTable, wifiRow(i, i%3, fmt.Sprintf("ap-%d", i))); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func newSeedDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := buildSeedDB()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// startFresh opens a manager over dir, seeds the db, and wires the hooks
// the way cmd/sieve-server does.
func startFresh(t *testing.T, dir string, opts wal.Options) (*engine.DB, *policy.Store, *wal.Manager) {
	t.Helper()
	db := newSeedDB(t)
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if has, err := m.HasState(); err != nil || has {
		t.Fatalf("fresh dir: HasState=%v err=%v", has, err)
	}
	if err := m.Start(db, func() []string { return []string{testTable} }); err != nil {
		t.Fatal(err)
	}
	db.SetWAL(m)
	store.SetDurability(m)
	return db, store, m
}

// reopen recovers dir into a fresh db and returns the recovered world.
func reopen(t *testing.T, dir string, opts wal.Options) (*engine.DB, *wal.Recovered, *wal.Manager) {
	t.Helper()
	m, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if has, err := m.HasState(); err != nil || !has {
		t.Fatalf("used dir: HasState=%v err=%v", has, err)
	}
	db := engine.New(engine.MySQL())
	rec, err := m.Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(db, func() []string { return rec.Protected }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return db, rec, m
}

// dumpTable renders a table's full slot state (tombstones included) so
// two stores can be compared for byte-for-byte heap parity.
func dumpTable(t *testing.T, db *engine.DB, name string) []string {
	t.Helper()
	tab, ok := db.Table(name)
	if !ok {
		t.Fatalf("table %s missing", name)
	}
	v := tab.View()
	var out []string
	for seg := 0; seg < (v.NumSlots()+v.SegmentRows()-1)/v.SegmentRows(); seg++ {
		v.SegmentSlots(seg, func(id storage.RowID, r storage.Row, live bool) bool {
			if !live {
				out = append(out, fmt.Sprintf("%d: <deleted>", id))
				return true
			}
			cells := make([]string, len(r))
			for i, val := range r {
				cells[i] = val.String()
			}
			out = append(out, fmt.Sprintf("%d: %s", id, strings.Join(cells, "|")))
			return true
		})
	}
	return out
}

// assertSameState compares catalog, heaps, indexes and policies of the
// live and the recovered store. The rOC sequence column is generator
// state, not policy content, so policies are compared through their
// durable serialisation instead of raw sieve_object_conditions rows.
func assertSameState(t *testing.T, want, got *engine.DB, wantStore, gotStore *policy.Store) {
	t.Helper()
	wantNames, gotNames := want.TableNames(), got.TableNames()
	if !reflect.DeepEqual(wantNames, gotNames) {
		t.Fatalf("tables differ:\n want %v\n  got %v", wantNames, gotNames)
	}
	for _, name := range wantNames {
		if name == policy.TableOC {
			continue
		}
		w, g := dumpTable(t, want, name), dumpTable(t, got, name)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("table %s differs:\n want %v\n  got %v", name, w, g)
		}
		wt, gt := mustTable(t, want, name), mustTable(t, got, name)
		wIdx, gIdx := wt.IndexedColumns(), gt.IndexedColumns()
		sort.Strings(wIdx)
		sort.Strings(gIdx)
		if !reflect.DeepEqual(wIdx, gIdx) {
			t.Fatalf("table %s indexes differ: want %v got %v", name, wIdx, gIdx)
		}
		if wt.SegmentRows() != gt.SegmentRows() {
			t.Fatalf("table %s segment size differs: want %d got %d", name, wt.SegmentRows(), gt.SegmentRows())
		}
	}
	wp, gp := wantStore.All(), gotStore.All()
	if len(wp) != len(gp) {
		t.Fatalf("policy count differs: want %d got %d", len(wp), len(gp))
	}
	for i := range wp {
		if s1, s2 := policyString(t, wp[i]), policyString(t, gp[i]); s1 != s2 {
			t.Fatalf("policy %d differs:\n want %s\n  got %s", i, s1, s2)
		}
	}
}

func mustTable(t *testing.T, db *engine.DB, name string) *storage.Table {
	t.Helper()
	tab, ok := db.Table(name)
	if !ok {
		t.Fatalf("table %s missing", name)
	}
	return tab
}

func policyString(t *testing.T, p *policy.Policy) string {
	t.Helper()
	ts, err := policy.MarshalConditionText(p)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("id=%d owner=%d querier=%s rel=%s purpose=%s action=%s at=%d conds=%v",
		p.ID, p.Owner, p.Querier, p.Relation, p.Purpose, p.Action, p.InsertedAt, ts)
}

func testPolicy(owner int64, querier string) *policy.Policy {
	return &policy.Policy{
		Owner: owner, Querier: querier, Relation: testTable,
		Purpose: policy.AnyPurpose, Action: policy.Allow,
		Conditions: []policy.ObjectCondition{
			policy.Compare("ap", sqlparser.CmpEq, storage.NewString("ap-1")),
		},
	}
}

// mutate runs a representative mix of logged operations.
func mutate(t *testing.T, db *engine.DB, store *policy.Store) {
	t.Helper()
	id, err := db.InsertRow(testTable, wifiRow(100, 1, "ap-100"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(testTable, id, wifiRow(100, 1, "ap-100b")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(testTable, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkInsert(testTable, []storage.Row{
		wifiRow(101, 2, "ap-101"), wifiRow(102, 0, "ap-102"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(testTable, "ap"); err != nil {
		t.Fatal(err)
	}
	aux := storage.MustSchema(
		storage.Column{Name: "k", Type: storage.KindString},
		storage.Column{Name: "v", Type: storage.KindFloat},
	)
	if _, err := db.CreateTable("aux", aux); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("aux", storage.Row{storage.NewString("pi"), storage.NewFloat(3.14)}); err != nil {
		t.Fatal(err)
	}
	p1, p2 := testPolicy(1, "alice"), testPolicy(2, "bob")
	if err := store.Insert(p1); err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(p2); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Revoke(p1.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(testTable, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(testTable); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRow(testTable, wifiRow(103, 1, "ap-103")); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRoundTrip is the core durability contract: a clean shutdown
// recovers to exactly the pre-shutdown state, through every record type.
func TestRecoverRoundTrip(t *testing.T) {
	for _, sync := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, store, m := startFresh(t, dir, wal.Options{Sync: sync})
			mutate(t, db, store)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			db2, rec, _ := reopen(t, dir, wal.Options{Sync: sync})
			if rec.Replayed == 0 {
				t.Fatalf("expected replayed records, got %+v", rec)
			}
			if !reflect.DeepEqual(rec.Protected, []string{testTable}) {
				t.Fatalf("protected = %v", rec.Protected)
			}
			assertSameState(t, db, db2, store, rec.Store)
		})
	}
}

// TestRecoverFromCheckpoint forces frequent snapshots so recovery stands
// on a snapshot plus a short suffix, and old segments are collected.
func TestRecoverFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, store, m := startFresh(t, dir, wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 3})
	mutate(t, db, store)
	db2, rec, _ := reopen(t, dir, wal.Options{})
	if rec.SnapshotLSN == 0 {
		t.Fatalf("expected a post-bootstrap snapshot, got %+v", rec)
	}
	assertSameState(t, db, db2, store, rec.Store)
	_ = m.Close()
}

// TestRecoverTornTail appends garbage and truncated frames to the active
// segment — the write that was in flight when power died — and expects
// recovery to truncate to the acknowledged prefix.
func TestRecoverTornTail(t *testing.T) {
	for name, grow := range map[string]func([]byte) []byte{
		"garbage":     func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) },
		"half-header": func(b []byte) []byte { return append(b, 0x10, 0x00) },
		"big-length":  func(b []byte) []byte { return append(b, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, store, m := startFresh(t, dir, wal.Options{Sync: wal.SyncAlways})
			mutate(t, db, store)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			seg := newestSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, grow(data), 0o644); err != nil {
				t.Fatal(err)
			}
			db2, rec, _ := reopen(t, dir, wal.Options{})
			if rec.TornBytes == 0 {
				t.Fatalf("expected torn bytes, got %+v", rec)
			}
			assertSameState(t, db, db2, store, rec.Store)
		})
	}
}

// TestRecoverTruncatedTail cuts bytes off the final frame instead of
// adding garbage: the unacknowledged suffix disappears, everything
// acknowledged before it survives.
func TestRecoverTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	db, store, m := startFresh(t, dir, wal.Options{Sync: wal.SyncAlways})
	mutate(t, db, store)
	// The last mutation was an insert of row id 103; chop into its frame.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, m2 := reopen(t, dir, wal.Options{})
	if rec.TornBytes == 0 {
		t.Fatalf("expected torn bytes, got %+v", rec)
	}
	// The torn insert must be gone: ap-103 unknown to the recovered heap.
	for _, line := range dumpTable(t, rec.Store.DB(), testTable) {
		if strings.Contains(line, "ap-103") {
			t.Fatalf("torn insert resurrected: %s", line)
		}
	}
	_ = m2.Close()
}

// TestRecoverCorruptNewestSnapshotFails truncates the newest snapshot in
// place (atomic tmp+rename prevents this in a crash; disks still happen).
// Its covering segments were already collected, so recovery must refuse
// to serve a history with a hole rather than fall back silently.
func TestRecoverCorruptNewestSnapshotFails(t *testing.T) {
	dir := t.TempDir()
	db, store, m := startFresh(t, dir, wal.Options{Sync: wal.SyncAlways})
	mutate(t, db, store)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p1 := testPolicy(0, "carol")
	if err := store.Insert(p1); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot; its covering segments were GC'd, so
	// recovery must fail loudly rather than silently lose the middle.
	snaps := snapshotFiles(t, dir)
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Recover(engine.New(engine.MySQL())); err == nil {
		t.Fatal("recovery silently accepted a history with a hole")
	}
}

func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	sort.Strings(matches)
	// The active segment after a clean close may be empty; pick the
	// newest non-empty one.
	for i := len(matches) - 1; i >= 0; i-- {
		if st, err := os.Stat(matches[i]); err == nil && st.Size() > 0 {
			return matches[i]
		}
	}
	t.Fatal("all segments empty")
	return ""
}

func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}
