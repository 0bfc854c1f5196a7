// Package wal is Sieve's durability subsystem: a write-ahead log of row,
// DDL and policy mutations plus periodic snapshots of the store, with
// crash recovery that replays the log suffix on top of the newest valid
// snapshot.
//
// The middleware's in-memory store (storage/engine/policy/core) is fast
// but forgetful; this package makes acknowledged mutations survive a
// crash. The invariants:
//
//   - Log before apply. Every mutation of durable state appends a
//     CRC-framed record — and, under SyncAlways, fsyncs it — before the
//     in-memory apply commits, so an acknowledged operation is always on
//     disk. In particular no acknowledged policy revocation is ever
//     forgotten: serving one stale allow after a restart is exactly the
//     access-control failure Sieve exists to prevent.
//   - Acknowledged-prefix recovery. A torn tail (partial last frame,
//     corrupt CRC) is detected and truncated; everything before it
//     replays. Recovered state equals the state produced by a prefix of
//     acknowledged operations — never a half-applied one.
//   - Derived state regenerates. Guard caches, plan caches and
//     histograms are not persisted; the middleware rebuilds them lazily,
//     exactly as it populates them on first use.
//
// One Manager implements engine.WAL, policy.Durability and
// core.DurabilityLog; those consumer-side interfaces keep this package
// free of an import cycle with core.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/obs"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before the mutation is applied —
	// full durability for every acknowledged operation.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (Options.SyncEvery). A
	// crash may lose the last interval's acknowledged operations, but
	// recovery still lands on a consistent acknowledged prefix.
	SyncInterval
	// SyncNever leaves syncing to the OS page cache. Process crashes
	// lose nothing (the cache survives); power loss may lose the tail.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none", "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

// Options configures a Manager. The zero value is production-safe:
// fsync-per-append, 8 MiB segments, snapshot every 4096 committed
// records.
type Options struct {
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// SyncEvery is the background fsync cadence under SyncInterval
	// (default 25ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 8 MiB; <0 disables size-based rotation).
	SegmentBytes int64
	// CheckpointEvery cuts a snapshot after this many committed records
	// (default 4096; <0 disables automatic checkpoints — Checkpoint and
	// the clean-shutdown path still cut them explicitly).
	CheckpointEvery int64
	// SkipTables are excluded from row logging and from snapshots. Nothing
	// sets it to a non-empty list since the guard cache left the database;
	// it remains because benchmark/inputs.go sets the field and a PR
	// outside [benchmark] may not edit that module (ROADMAP).
	SkipTables []string
}

func (o Options) withDefaults() Options {
	if o.SyncEvery == 0 {
		o.SyncEvery = 25 * time.Millisecond
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 4096
	}
	return o
}

// Manager owns one data directory: the active log segment, the snapshot
// cadence, and recovery. All appends serialise through mu; the
// commit-closure protocol (see engine.WAL) holds mu across append+apply
// so log order equals apply order.
type Manager struct {
	dir   string
	opts  Options
	skip  map[string]bool
	crash *crashPlan

	mu        sync.Mutex
	log       *logFile
	lsn       uint64 // last assigned LSN
	snapLSN   uint64 // LSN the newest snapshot covers
	sinceSnap int64  // committed records since that snapshot
	db        *engine.DB
	protected func() []string
	recovered *Recovered // non-nil once Recover ran
	started   bool
	closed    bool
	failed    error // sticky: the first failed write or fsync (append or Sync) fail-stops the log

	appends      atomic.Int64
	bytes        atomic.Int64
	fsyncs       atomic.Int64
	snapshots    atomic.Int64
	replayed     atomic.Int64
	recoveryMS   atomic.Int64
	lastSnapshot atomic.Int64 // unix ms, observability only
	appendNS     atomic.Int64 // cumulative time in append (write + inline fsync)
	fsyncNS      atomic.Int64 // cumulative time in fsync calls

	// obsHist holds the registry histograms appends/fsyncs observe into;
	// nil until SetRegistry. Stored atomically so SetRegistry may race
	// in-flight appends.
	obsHist atomic.Pointer[walHistograms]

	syncStop chan struct{}
	syncDone chan struct{}
}

// Open prepares a Manager over dir, creating it if needed. No state is
// read or written yet: call HasState to pick the fresh or recovered
// bootstrap path, then Recover (if recovering) and Start.
func Open(dir string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		dir:   dir,
		opts:  opts.withDefaults(),
		skip:  make(map[string]bool),
		crash: parseCrashEnv(),
	}
	for _, t := range m.opts.SkipTables {
		m.skip[t] = true
	}
	return m, nil
}

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.dir }

// HasState reports whether dir holds prior durable state (any snapshot
// or log segment), i.e. whether the caller must Recover before Start.
func (m *Manager) HasState() (bool, error) {
	segs, snaps, err := listFiles(m.dir)
	if err != nil {
		return false, err
	}
	return len(segs)+len(snaps) > 0, nil
}

// Start begins logging. On a fresh directory it cuts the initial
// snapshot of db's current state (the loaded seed data) so recovery
// always has a snapshot to stand on; after Recover it opens a new
// segment past the replayed suffix. protectedFn supplies the
// middleware's protected-relation set at snapshot time.
//
// Start does not attach any hooks — the caller wires db.SetWAL,
// Store.SetDurability and Middleware.SetDurability afterwards, so
// nothing that ran before (seed load, recovery replay) is re-logged.
func (m *Manager) Start(db *engine.DB, protectedFn func() []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("wal: already started")
	}
	if m.closed {
		return fmt.Errorf("wal: closed")
	}
	m.db = db
	m.protected = protectedFn
	if m.recovered == nil {
		// Fresh directory: snapshot the seed state at LSN 0.
		if err := m.snapshotLocked(); err != nil {
			return err
		}
	} else {
		log, err := openSegment(m.dir, m.lsn+1)
		if err != nil {
			return err
		}
		m.log = log
		if err := syncDir(m.dir); err != nil {
			return err
		}
	}
	m.started = true
	if m.opts.Sync == SyncInterval {
		m.syncStop = make(chan struct{})
		m.syncDone = make(chan struct{})
		go m.syncLoop()
	}
	return nil
}

// syncLoop is the SyncInterval background fsync. A failure stops the log
// (Sync), so the next append reports it.
func (m *Manager) syncLoop() {
	defer close(m.syncDone)
	t := time.NewTicker(m.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = m.Sync()
		case <-m.syncStop:
			return
		}
	}
}

// Sync flushes the active segment to stable storage. A failed fsync stops
// the log, as it does on the append path: the kernel may have dropped the
// dirty pages it could not write, so no later append is acknowledged.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil || m.closed {
		return nil
	}
	t0 := time.Now()
	if err := m.log.sync(); err != nil {
		if m.failed == nil {
			m.failed = err
		}
		return fmt.Errorf("wal: fsync failed: %w", err)
	}
	m.observeFsync(time.Since(t0))
	return nil
}

// Checkpoint cuts a snapshot of the current state, rotates the log, and
// garbage-collects segments and snapshots the new snapshot covers.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started || m.closed {
		return fmt.Errorf("wal: not running")
	}
	return m.snapshotLocked()
}

// snapshotLocked cuts a snapshot at the current LSN. Callers hold mu, so
// the cut is a consistent prefix of the log: no logged mutation can be
// mid-apply while we serialise the heaps.
func (m *Manager) snapshotLocked() error {
	var protected []string
	if m.protected != nil {
		protected = m.protected()
	}
	data := encodeSnapshot(m.db, m.lsn, protected, m.skip)
	if _, err := writeSnapshotFile(m.dir, m.lsn, data, m.crash); err != nil {
		return fmt.Errorf("wal: snapshot failed: %w", err)
	}
	if m.log != nil {
		if err := m.log.sync(); err != nil {
			return err
		}
		m.fsyncs.Add(1)
		if err := m.log.close(); err != nil {
			return err
		}
	}
	log, err := openSegment(m.dir, m.lsn+1)
	if err != nil {
		return err
	}
	m.log = log
	if err := syncDir(m.dir); err != nil {
		return err
	}
	m.snapLSN = m.lsn
	m.sinceSnap = 0
	m.snapshots.Add(1)
	m.lastSnapshot.Store(time.Now().UnixMilli())
	m.gcLocked()
	return nil
}

// gcLocked removes segments and snapshots fully covered by the newest
// snapshot. Best-effort: a leftover file is re-collected next time.
func (m *Manager) gcLocked() {
	segs, snaps, err := listFiles(m.dir)
	if err != nil {
		return
	}
	for _, s := range segs {
		// The segment starting at LSN s is covered when the snapshot
		// includes its records and it is not the active segment.
		if s <= m.snapLSN && s != m.log.firstLSN {
			_ = os.Remove(filepath.Join(m.dir, segmentName(s)))
		}
	}
	for _, s := range snaps {
		if s < m.snapLSN {
			_ = os.Remove(filepath.Join(m.dir, snapshotName(s)))
		}
	}
	_ = syncDir(m.dir)
}

// Close stops the sync loop and closes the active segment. It does not
// checkpoint; callers that want a clean-shutdown snapshot call
// Checkpoint first (cmd/sieve-server's drain path does).
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	stop := m.syncStop
	done := m.syncDone
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log != nil {
		if err := m.log.sync(); err != nil {
			return err
		}
		m.fsyncs.Add(1)
		return m.log.close()
	}
	return nil
}

// Varz returns the durability counters as one map; SetRegistry serves
// the same cells on /metrics as sieve_wal_* gauges.
func (m *Manager) Varz() map[string]int64 {
	return map[string]int64{
		"wal_appends":          m.appends.Load(),
		"wal_bytes":            m.bytes.Load(),
		"wal_fsyncs":           m.fsyncs.Load(),
		"wal_snapshots":        m.snapshots.Load(),
		"wal_records_replayed": m.replayed.Load(),
		"wal_last_recovery_ms": m.recoveryMS.Load(),
	}
}

// walHistograms are the latency distributions appends feed when a
// registry is attached.
type walHistograms struct {
	append *obs.Histogram
	fsync  *obs.Histogram
}

// SetRegistry attaches a metrics registry: every subsequent append and
// fsync observes its duration into sieve_wal_append_ns /
// sieve_wal_fsync_ns, and the wal_* counters register as gauge funcs so
// a /metrics scrape sees them.
func (m *Manager) SetRegistry(r *obs.Registry) {
	if r == nil {
		m.obsHist.Store(nil)
		return
	}
	m.obsHist.Store(&walHistograms{
		append: r.Histogram("sieve_wal_append_ns"),
		fsync:  r.Histogram("sieve_wal_fsync_ns"),
	})
	gauge := func(name string, v *atomic.Int64) { r.GaugeFunc(name, v.Load) }
	gauge("sieve_wal_appends", &m.appends)
	gauge("sieve_wal_bytes", &m.bytes)
	gauge("sieve_wal_fsyncs", &m.fsyncs)
	gauge("sieve_wal_snapshots", &m.snapshots)
	gauge("sieve_wal_records_replayed", &m.replayed)
	gauge("sieve_wal_last_recovery_ms", &m.recoveryMS)
	gauge("sieve_wal_append_ns_total", &m.appendNS)
	gauge("sieve_wal_fsync_ns_total", &m.fsyncNS)
}

// AppendNanos returns the cumulative time spent in the append path
// (frame write plus any inline fsync). A caller diffs it around a stretch
// of writes to price the WAL's share of them, as the benchmark's traced
// run does for wal.append_us_per_rec.
func (m *Manager) AppendNanos() int64 { return m.appendNS.Load() }
