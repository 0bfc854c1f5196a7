package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/wal"
)

// recoveryTable is the relation the durability benchmark loads: shaped
// like the WiFi connectivity relation (ids, owner, AP, timestamp) plus a
// short string payload so snapshot throughput is not an integer-only
// best case.
const recoveryTable = "bench_events"

// recoveryCell is one record-count measurement.
type recoveryCell struct {
	Records int
	// Append-side cost of running with the log on (SyncNever, so the
	// number is the logging overhead, not the disk's fsync latency).
	WALBytes int64
	AppendUS float64
	// Cold recovery from the bootstrap snapshot plus a full-length WAL
	// suffix: the worst case a crash can leave behind.
	ColdRecoveryMS float64
	ReplayPerSec   float64
	// Checkpoint write throughput, and recovery when that snapshot
	// covers everything (the post-clean-shutdown boot).
	SnapshotBytes int64
	SnapshotMS    float64
	SnapshotMBps  float64
	RestoreMS     float64
}

// Recovery measures the durability subsystem: WAL append overhead,
// snapshot write throughput, replay rate, and cold-recovery wall time
// across the configured record counts (10⁴–10⁶ at bench scale). The
// append half is also wal.append_us_per_rec / wal.bytes_per_write in
// BENCHMARK.json; cold recovery and snapshot throughput are reported
// only here.
func Recovery(cfg Config) (*Table, error) {
	if len(cfg.RecoveryRecords) == 0 {
		return nil, fmt.Errorf("experiment: recovery sweep is empty (set RecoveryRecords)")
	}
	tab := &Table{
		ID:      "Recovery",
		Title:   "Durability: WAL append, snapshot throughput, cold recovery",
		Headers: []string{"records", "wal MB", "append µs/rec", "cold ms", "replay rec/s", "snap MB", "snap ms", "snap MB/s", "restore ms"},
		Notes: []string{
			"cold = bootstrap snapshot + full WAL replay (the worst crash); restore = one covering snapshot, zero replay (the clean boot)",
			"appends run under SyncNever so the numbers isolate logging cost from the disk's fsync latency",
		},
	}
	for _, n := range cfg.RecoveryRecords {
		cell, err := recoveryCellRun(n)
		if err != nil {
			return nil, fmt.Errorf("experiment: recovery %d records: %w", n, err)
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", cell.Records),
			fmt.Sprintf("%.2f", float64(cell.WALBytes)/1e6),
			fmt.Sprintf("%.2f", cell.AppendUS),
			fmt.Sprintf("%.1f", cell.ColdRecoveryMS),
			fmt.Sprintf("%.0f", cell.ReplayPerSec),
			fmt.Sprintf("%.1f", float64(cell.SnapshotBytes)/1e6),
			fmt.Sprintf("%.1f", cell.SnapshotMS),
			fmt.Sprintf("%.0f", cell.SnapshotMBps),
			fmt.Sprintf("%.1f", cell.RestoreMS),
		})
	}
	return tab, nil
}

// recoveryRow synthesises the i-th event row.
func recoveryRow(i int) storage.Row {
	return storage.Row{
		storage.NewInt(int64(i)),
		storage.NewInt(int64(i % 997)),
		storage.NewInt(int64(i % 64)),
		storage.NewTime(int64(i % 86400)),
		storage.NewString(fmt.Sprintf("event-%d-payload", i)),
	}
}

// recoveryDB creates the empty benchmark relation.
func recoveryDB() (*engine.DB, error) {
	db := engine.New(engine.MySQL())
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "ap", Type: storage.KindInt},
		storage.Column{Name: "ts", Type: storage.KindTime},
		storage.Column{Name: "note", Type: storage.KindString},
	)
	if _, err := db.CreateTable(recoveryTable, schema); err != nil {
		return nil, err
	}
	return db, nil
}

// recoveryCellRun loads n records through the WAL, then measures the two
// recovery shapes and the checkpoint in between.
func recoveryCellRun(n int) (*recoveryCell, error) {
	dir, err := os.MkdirTemp("", "sieve-recovery-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Load: bootstrap snapshot of the empty relation, then n logged
	// inserts, no checkpoints — the longest possible replay suffix.
	db, err := recoveryDB()
	if err != nil {
		return nil, err
	}
	m, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, CheckpointEvery: -1})
	if err != nil {
		return nil, err
	}
	protected := func() []string { return []string{recoveryTable} }
	if err := m.Start(db, protected); err != nil {
		return nil, err
	}
	db.SetWAL(m)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := db.InsertRow(recoveryTable, recoveryRow(i)); err != nil {
			return nil, err
		}
	}
	appendDur := time.Since(start)
	cell := &recoveryCell{
		Records:  n,
		WALBytes: m.Varz()["wal_bytes"],
		AppendUS: float64(appendDur.Microseconds()) / float64(n),
	}
	if err := m.Close(); err != nil {
		return nil, err
	}

	// Cold recovery: every record replays.
	m2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	db2 := engine.New(engine.MySQL())
	start = time.Now()
	rec, err := m2.Recover(db2)
	if err != nil {
		return nil, err
	}
	coldDur := time.Since(start)
	if rec.Replayed != n {
		return nil, fmt.Errorf("cold recovery replayed %d of %d records", rec.Replayed, n)
	}
	cell.ColdRecoveryMS = float64(coldDur.Microseconds()) / 1e3
	cell.ReplayPerSec = float64(n) / coldDur.Seconds()

	// Checkpoint: one covering snapshot, measured as write throughput.
	if err := m2.Start(db2, protected); err != nil {
		return nil, err
	}
	start = time.Now()
	if err := m2.Checkpoint(); err != nil {
		return nil, err
	}
	snapDur := time.Since(start)
	if cell.SnapshotBytes, err = newestSnapshotSize(dir); err != nil {
		return nil, err
	}
	cell.SnapshotMS = float64(snapDur.Microseconds()) / 1e3
	if s := snapDur.Seconds(); s > 0 {
		cell.SnapshotMBps = float64(cell.SnapshotBytes) / 1e6 / s
	}
	if err := m2.Close(); err != nil {
		return nil, err
	}

	// Restore-only recovery: the clean-shutdown boot.
	m3, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	db3 := engine.New(engine.MySQL())
	start = time.Now()
	rec3, err := m3.Recover(db3)
	if err != nil {
		return nil, err
	}
	restoreDur := time.Since(start)
	if rec3.Replayed != 0 {
		return nil, fmt.Errorf("post-checkpoint recovery replayed %d records, want 0", rec3.Replayed)
	}
	cell.RestoreMS = float64(restoreDur.Microseconds()) / 1e3
	return cell, nil
}

// newestSnapshotSize stats the newest snapshot in dir.
func newestSnapshotSize(dir string) (int64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(matches) == 0 {
		return 0, fmt.Errorf("no snapshot in %s (err=%v)", dir, err)
	}
	newest := matches[0]
	for _, p := range matches[1:] {
		if p > newest {
			newest = p
		}
	}
	st, err := os.Stat(newest)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
