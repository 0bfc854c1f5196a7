package wal

import (
	"strings"
	"testing"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
)

// startFailStop starts a Manager over a fresh directory with the given
// fsync policy, checkpoints off and the background fsync far in the
// future, so only the test's own calls touch the file.
func startFailStop(t *testing.T, sync SyncPolicy) *Manager {
	t.Helper()
	m, err := Open(t.TempDir(), Options{Sync: sync, SyncEvery: time.Hour, CheckpointEvery: -1, SegmentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(engine.New(engine.MySQL()), func() []string { return nil }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() }) // its final fsync fails on the closed file
	return m
}

// closeActive closes the active segment's file under the running Manager:
// every later write and fsync on it fails.
func closeActive(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.log.f.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendErr appends one record and returns the error, releasing the log on
// success.
func appendErr(m *Manager) error {
	commit, err := m.AppendCompact("t", nil)
	if err == nil {
		commit()
	}
	return err
}

// TestFailedIntervalFsyncStopsTheLog: under SyncInterval an append is
// acknowledged before its fsync, so a failed background fsync is the only
// sign that acknowledged records may not be on disk. It stops the log:
// Sync reports the failure and every later append is refused.
func TestFailedIntervalFsyncStopsTheLog(t *testing.T) {
	m := startFailStop(t, SyncInterval)
	if err := appendErr(m); err != nil {
		t.Fatal(err)
	}
	closeActive(t, m)
	if err := m.Sync(); err == nil {
		t.Fatal("Sync on a closed segment succeeded")
	}
	err := appendErr(m)
	if err == nil || !strings.Contains(err.Error(), "log failed earlier") {
		t.Fatalf("append after a failed fsync: %v, want the log failed earlier", err)
	}
}

// TestFailedAppendWriteStopsTheLog: a write that fails leaves a torn tail,
// so the append that hit it fails and the log refuses every append after.
func TestFailedAppendWriteStopsTheLog(t *testing.T) {
	m := startFailStop(t, SyncAlways)
	closeActive(t, m)
	err := appendErr(m)
	if err == nil || !strings.Contains(err.Error(), "append failed") {
		t.Fatalf("append to a closed segment: %v, want append failed", err)
	}
	err = appendErr(m)
	if err == nil || !strings.Contains(err.Error(), "log failed earlier") {
		t.Fatalf("append after a failed write: %v, want the log failed earlier", err)
	}
}
