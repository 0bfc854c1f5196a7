package wal

import (
	"fmt"
	"os"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
)

// Manager implements engine.WAL, policy.Durability and core.DurabilityLog
// through one shared append path. Every Append* runs the caller's check,
// appends the framed record, syncs per policy, and returns with mu HELD;
// the returned commit closure releases it after the in-memory apply. That
// makes log order == apply order == validation order, which recovery
// relies on for deterministic replay (insert RowIDs are positional).

var _ engine.WAL = (*Manager)(nil)
var _ policy.Durability = (*Manager)(nil)

// LogsTable gates row logging. The policy relations are logged logically
// (AddPolicy/RevokePolicy records), so their row mutations never hit the
// log; neither do those of Options.SkipTables.
func (m *Manager) LogsTable(table string) bool {
	if table == policy.TableP || table == policy.TableOC {
		return false
	}
	return !m.skip[table]
}

// append is the single serialisation point. On success mu is held and the
// commit closure releases it; on failure mu is released before returning.
func (m *Manager) append(check func() error, rec *Record) (func(), error) {
	m.mu.Lock()
	if m.closed || !m.started {
		m.mu.Unlock()
		return nil, fmt.Errorf("wal: not running")
	}
	if m.failed != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("wal: log failed earlier: %w", m.failed)
	}
	if check != nil {
		if err := check(); err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	rec.LSN = m.lsn + 1
	payload, err := encodeRecord(rec)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	frame := appendFrame(make([]byte, 0, len(payload)+frameHeader), payload)
	appendStart := time.Now()
	if m.crash.at("append-torn") {
		// Write a prefix of the frame and die: the torn tail recovery
		// must detect and truncate.
		k := m.crash.k
		if k <= 0 || k >= len(frame) {
			k = len(frame) / 2
		}
		_ = m.log.write(frame[:k])
		_ = m.log.sync()
		crashNow()
	}
	if err := m.log.write(frame); err != nil {
		// A short write leaves a torn tail; appending more records after
		// it would put intact frames beyond a bad one, which recovery
		// correctly refuses to read past. Fail-stop instead.
		m.failed = err
		m.mu.Unlock()
		return nil, fmt.Errorf("wal: append failed: %w", err)
	}
	if m.opts.Sync == SyncAlways {
		if m.crash.at("fsync-before") {
			crashNow()
		}
		fsyncStart := time.Now()
		if err := m.log.sync(); err != nil {
			m.failed = err
			m.mu.Unlock()
			return nil, fmt.Errorf("wal: fsync failed: %w", err)
		}
		m.observeFsync(time.Since(fsyncStart))
		if m.crash.at("fsync-after") {
			crashNow()
		}
	}
	m.lsn = rec.LSN
	m.appends.Add(1)
	m.bytes.Add(int64(len(frame)))
	appendDur := time.Since(appendStart)
	m.appendNS.Add(int64(appendDur))
	if h := m.obsHist.Load(); h != nil {
		h.append.Observe(int64(appendDur))
	}
	return m.commitClosure(), nil
}

// observeFsync tallies one fsync's bookkeeping: the counter, the
// cumulative nanoseconds, and the registry histogram when attached.
func (m *Manager) observeFsync(d time.Duration) {
	m.fsyncs.Add(1)
	m.fsyncNS.Add(int64(d))
	if h := m.obsHist.Load(); h != nil {
		h.fsync.Observe(int64(d))
	}
}

// commitClosure finishes one append after the caller applied the
// mutation: maybe checkpoint or rotate, then release mu.
func (m *Manager) commitClosure() func() {
	done := false
	return func() {
		if done {
			return
		}
		done = true
		m.sinceSnap++
		switch {
		case m.opts.CheckpointEvery > 0 && m.sinceSnap >= m.opts.CheckpointEvery:
			if err := m.snapshotLocked(); err != nil {
				// Snapshot failure is not fatal to the log: the WAL
				// suffix still covers everything. Retry next threshold.
				fmt.Fprintf(os.Stderr, "wal: checkpoint failed: %v\n", err)
				m.sinceSnap = 0
			}
		case m.opts.SegmentBytes > 0 && m.log.size >= m.opts.SegmentBytes:
			if err := m.rotateLocked(); err != nil {
				fmt.Fprintf(os.Stderr, "wal: segment rotation failed: %v\n", err)
			}
		}
		m.mu.Unlock()
	}
}

// rotateLocked closes the active segment and opens the next one, without
// snapshotting. Replay walks segment chains by LSN continuity.
func (m *Manager) rotateLocked() error {
	if err := m.log.sync(); err != nil {
		return err
	}
	m.fsyncs.Add(1)
	if err := m.log.close(); err != nil {
		return err
	}
	log, err := openSegment(m.dir, m.lsn+1)
	if err != nil {
		return err
	}
	m.log = log
	return syncDir(m.dir)
}

// ---- engine.WAL ----

func (m *Manager) AppendInsert(table string, row storage.Row, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recInsert, Table: table, Row: row})
}

func (m *Manager) AppendBulkInsert(table string, rows []storage.Row, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recBulkInsert, Table: table, Rows: rows})
}

func (m *Manager) AppendUpdate(table string, id storage.RowID, row storage.Row, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recUpdate, Table: table, RowID: id, Row: row})
}

func (m *Manager) AppendDelete(table string, id storage.RowID, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recDelete, Table: table, RowID: id})
}

func (m *Manager) AppendCreateTable(name string, schema *storage.Schema, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recCreateTable, Table: name, Cols: schema.Columns})
}

func (m *Manager) AppendCreateIndex(table, col string, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recCreateIndex, Table: table, Col: col})
}

func (m *Manager) AppendCompact(table string, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recCompact, Table: table})
}

// ---- policy.Durability ----

func (m *Manager) AppendPolicyInsert(p *policy.Policy, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recAddPolicy, Policy: p})
}

func (m *Manager) AppendPolicyRevoke(id int64, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recRevokePolicy, PolicyID: id})
}

// ---- core.DurabilityLog ----

func (m *Manager) AppendProtect(relation string, check func() error) (func(), error) {
	return m.append(check, &Record{Type: recProtect, Relation: relation})
}
