package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/storage"
)

// Snapshot format (all integers varint/uvarint unless noted):
//
//	"SIEVSNP1"
//	uvarint lsn                       last LSN the snapshot covers
//	uvarint nProtected, strings       middleware's protected relations
//	uvarint nTables, then per table:
//	  string name
//	  uvarint nCols, (string name, byte kind)*
//	  uvarint segSize
//	  string (reserved)               written "", read and discarded
//	  uvarint nIndexes, strings       indexed columns (sorted)
//	  uvarint nSlots, then per slot:  byte 1 + nCols values, or byte 0
//	uint32 LE CRC32 of everything above
//	"SIEVEND1"
//
// The heap is serialised slot-exact — tombstones included — so restored
// RowIDs equal the ones the WAL suffix's update/delete records were
// logged against. Slots are emitted through the copy-on-write View
// segment by segment; the manager holds its serialisation lock across
// the cut, so no logged mutation can interleave and the cut is a
// consistent prefix of the log at exactly lsn.
//
// Written atomically: tmp file, fsync, rename, fsync dir. A reader only
// ever sees a complete snapshot or none.

var snapMagic = []byte("SIEVSNP1")
var snapEnd = []byte("SIEVEND1")

// snapshotTable is one relation's serialised state.
type snapshotTable struct {
	name    string
	cols    []storage.Column
	segSize int
	indexes []string
	rows    []storage.Row
	deleted []bool
}

// snapshot is a decoded snapshot file.
type snapshot struct {
	lsn       uint64
	protected []string
	tables    []snapshotTable
}

// encodeSnapshot serialises the state of db at lsn. skip lists tables to
// leave out (derived guard-cache state that regenerates lazily).
func encodeSnapshot(db *engine.DB, lsn uint64, protected []string, skip map[string]bool) []byte {
	b := append([]byte(nil), snapMagic...)
	b = binary.AppendUvarint(b, lsn)
	b = binary.AppendUvarint(b, uint64(len(protected)))
	for _, r := range protected {
		b = appendStr(b, r)
	}
	var names []string
	for _, n := range db.TableNames() {
		if !skip[n] {
			names = append(names, n)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		t := db.MustTable(name)
		v := t.View()
		b = appendStr(b, name)
		b = binary.AppendUvarint(b, uint64(t.Schema.Len()))
		for _, c := range t.Schema.Columns {
			b = appendStr(b, c.Name)
			b = append(b, byte(c.Type))
		}
		b = binary.AppendUvarint(b, uint64(v.SegmentRows()))
		b = appendStr(b, "") // reserved
		idxs := t.IndexedColumns()
		sort.Strings(idxs)
		b = binary.AppendUvarint(b, uint64(len(idxs)))
		for _, c := range idxs {
			b = appendStr(b, c)
		}
		b = binary.AppendUvarint(b, uint64(v.NumSlots()))
		for seg := 0; seg < segmentsFor(v.NumSlots(), v.SegmentRows()); seg++ {
			v.SegmentSlots(seg, func(_ storage.RowID, r storage.Row, live bool) bool {
				if !live {
					b = append(b, 0)
					return true
				}
				b = append(b, 1)
				for _, val := range r {
					b = appendValue(b, val)
				}
				return true
			})
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
	return append(b, snapEnd...)
}

func segmentsFor(slots, segSize int) int {
	if segSize < 1 {
		return 0
	}
	return (slots + segSize - 1) / segSize
}

// decodeSnapshot parses and verifies a snapshot file's bytes.
func decodeSnapshot(data []byte) (*snapshot, error) {
	if len(data) < len(snapMagic)+4+len(snapEnd) {
		return nil, fmt.Errorf("wal: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("wal: bad snapshot magic")
	}
	if string(data[len(data)-len(snapEnd):]) != string(snapEnd) {
		return nil, fmt.Errorf("wal: snapshot end marker missing (truncated write)")
	}
	body := data[:len(data)-len(snapEnd)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-len(snapEnd)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	r := &reader{b: body[len(snapMagic):]}
	s := &snapshot{lsn: r.uvarint()}
	for i, n := 0, r.count(1); i < n && r.err == nil; i++ {
		s.protected = append(s.protected, r.str())
	}
	nTables := r.count(1)
	for ti := 0; ti < nTables && r.err == nil; ti++ {
		var t snapshotTable
		t.name = r.str()
		nCols := r.count(2)
		t.cols = make([]storage.Column, nCols)
		for i := range t.cols {
			t.cols[i].Name = r.str()
			t.cols[i].Type = storage.Kind(r.byte())
			if r.err == nil && t.cols[i].Type > storage.KindDate {
				r.fail("wal: snapshot table %s: unknown column kind %d", t.name, t.cols[i].Type)
			}
		}
		t.segSize = int(r.uvarint())
		r.str() // reserved: snapshots from before PR 23 name an owner column here
		for i, n := 0, r.count(1); i < n && r.err == nil; i++ {
			t.indexes = append(t.indexes, r.str())
		}
		nSlots := r.count(1)
		t.rows = make([]storage.Row, nSlots)
		t.deleted = make([]bool, nSlots)
		for i := 0; i < nSlots && r.err == nil; i++ {
			switch r.byte() {
			case 0:
				t.deleted[i] = true
			case 1:
				row := make(storage.Row, nCols)
				for c := range row {
					row[c] = r.value()
				}
				t.rows[i] = row
			default:
				r.fail("wal: snapshot table %s: bad slot tag", t.name)
			}
		}
		s.tables = append(s.tables, t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes in snapshot", len(r.b))
	}
	return s, nil
}

// writeSnapshotFile lands encoded snapshot bytes atomically under dir.
func writeSnapshotFile(dir string, lsn uint64, data []byte, crash *crashPlan) (string, error) {
	final := filepath.Join(dir, snapshotName(lsn))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if crash.at("snapshot-mid") {
		// Simulate a crash mid-snapshot: half the bytes reach the tmp
		// file, the rename never happens. Recovery must fall back to the
		// previous snapshot + WAL suffix.
		_, _ = f.Write(data[:len(data)/2])
		_ = f.Sync()
		crashNow()
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// restoreSnapshot rebuilds db's catalog and heaps from a decoded
// snapshot: tables are created, heaps restored slot-exact (rebuilding
// segment zone maps exactly), and indexes rebuilt — the Compact/analyze
// machinery the engine already has. Histograms are not persisted;
// StatsRefreshed re-analyzes lazily on first planner use.
func restoreSnapshot(db *engine.DB, s *snapshot) error {
	for _, ts := range s.tables {
		schema, err := storage.NewSchema(ts.cols...)
		if err != nil {
			return fmt.Errorf("wal: snapshot table %s: %w", ts.name, err)
		}
		t, err := db.CreateTable(ts.name, schema)
		if err != nil {
			return err
		}
		if ts.segSize != storage.SegmentSize {
			t.SetSegmentSize(ts.segSize)
		}
		if err := t.RestoreHeap(ts.rows, ts.deleted); err != nil {
			return err
		}
		for _, col := range ts.indexes {
			if _, err := t.CreateIndex(col); err != nil {
				return err
			}
		}
	}
	return nil
}
