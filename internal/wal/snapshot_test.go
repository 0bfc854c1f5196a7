package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestSnapshotReservedOwnerField pins the SIEVSNP1 layout across the
// removal of owner tracking: the string between segSize and the index list
// is still there. A snapshot assembled by hand with that field set to
// "owner" — what a build from before PR 23 wrote for a protected relation —
// restores to the same rows, indexes and zone maps as the live table, and
// with the field empty the hand-assembled bytes are exactly what
// encodeSnapshot writes today.
func TestSnapshotReservedOwnerField(t *testing.T) {
	const (
		name    = "wifi"
		segSize = 4
		lsn     = 42
	)
	cols := []storage.Column{
		{Name: "id", Type: storage.KindInt},
		{Name: "owner", Type: storage.KindInt},
		{Name: "ap", Type: storage.KindString},
	}
	slots := make([]storage.Row, 10) // nil = tombstone
	for i := range slots {
		if i == 3 || i == 8 {
			continue
		}
		slots[i] = storage.Row{storage.NewInt(int64(i)), storage.NewInt(int64(i % 3)), storage.NewString(fmt.Sprintf("ap-%d", i))}
	}
	slots[5][2] = storage.Null

	// The live table the snapshot describes.
	ref := engine.New(engine.MySQL())
	tab, err := ref.CreateTable(name, storage.MustSchema(cols...))
	if err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentSize(segSize)
	for i, r := range slots {
		if r == nil {
			r = storage.Row{storage.NewInt(-1), storage.NewInt(-1), storage.NewString("doomed")}
		}
		if err := ref.Insert(name, r); err != nil {
			t.Fatal(err)
		}
		if slots[i] == nil {
			if err := ref.Delete(name, storage.RowID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ref.CreateIndex(name, "owner"); err != nil {
		t.Fatal(err)
	}
	tab.RebuildSegments() // exact zones, as a restore builds them

	assemble := func(ownerCol string) []byte {
		b := append([]byte(nil), snapMagic...)
		b = binary.AppendUvarint(b, lsn)
		b = binary.AppendUvarint(b, 1)
		b = appendStr(b, name) // protected
		b = binary.AppendUvarint(b, 1)
		b = appendStr(b, name)
		b = binary.AppendUvarint(b, uint64(len(cols)))
		for _, c := range cols {
			b = appendStr(b, c.Name)
			b = append(b, byte(c.Type))
		}
		b = binary.AppendUvarint(b, segSize)
		b = appendStr(b, ownerCol)
		b = binary.AppendUvarint(b, 1)
		b = appendStr(b, "owner") // indexed columns
		b = binary.AppendUvarint(b, uint64(len(slots)))
		for _, r := range slots {
			if r == nil {
				b = append(b, 0)
				continue
			}
			b = append(b, 1)
			for _, v := range r {
				b = appendValue(b, v)
			}
		}
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
		return append(b, snapEnd...)
	}

	if got := encodeSnapshot(ref, lsn, []string{name}, nil); !bytes.Equal(got, assemble("")) {
		t.Fatal("encodeSnapshot no longer writes the SIEVSNP1 layout with an empty reserved field")
	}

	s, err := decodeSnapshot(assemble("owner"))
	if err != nil {
		t.Fatalf("a snapshot naming an owner column must decode: %v", err)
	}
	if s.lsn != lsn || !reflect.DeepEqual(s.protected, []string{name}) {
		t.Fatalf("decoded lsn=%d protected=%v", s.lsn, s.protected)
	}
	db := engine.New(engine.MySQL())
	if err := restoreSnapshot(db, s); err != nil {
		t.Fatal(err)
	}
	got := db.MustTable(name)

	if w, g := tab.IndexedColumns(), got.IndexedColumns(); !reflect.DeepEqual(w, g) {
		t.Fatalf("indexes: want %v, got %v", w, g)
	}
	for i, r := range slots {
		gr, ok := got.Get(storage.RowID(i))
		if ok != (r != nil) || !reflect.DeepEqual(gr, r) {
			t.Fatalf("slot %d: want %v, got %v (live=%v)", i, r, gr, ok)
		}
	}
	gotIx, _ := got.Index("owner")
	refIx, _ := tab.Index("owner")
	for o := int64(0); o < 3; o++ {
		if w, g := refIx.Eq(nil, storage.NewInt(o)), gotIx.Eq(nil, storage.NewInt(o)); !reflect.DeepEqual(w, g) {
			t.Fatalf("index owner=%d: want ids %v, got %v", o, w, g)
		}
	}
	if tab.SegmentCount() != got.SegmentCount() {
		t.Fatalf("segments: want %d, got %d", tab.SegmentCount(), got.SegmentCount())
	}
	for seg := 0; seg < tab.SegmentCount(); seg++ {
		if w, g := tab.SegmentLive(seg), got.SegmentLive(seg); w != g {
			t.Fatalf("segment %d live: want %d, got %d", seg, w, g)
		}
		for _, c := range cols {
			w, _ := tab.SegmentZone(seg, c.Name)
			g, _ := got.SegmentZone(seg, c.Name)
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("segment %d zone %s: want %+v, got %+v", seg, c.Name, w, g)
			}
		}
	}
}
