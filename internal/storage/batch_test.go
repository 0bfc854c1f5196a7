package storage

import (
	"fmt"
	"testing"
)

// batchTable builds an n-row table of ncols string columns; cell (i, c)
// reads "<name> i.c".
func batchTable(t *testing.T, name string, ncols, n int) *Table {
	t.Helper()
	cols := make([]Column, ncols)
	for c := range cols {
		cols[c] = Column{Name: fmt.Sprintf("c%d", c), Type: KindString}
	}
	tab := NewTable(name, MustSchema(cols...))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, ncols)
		for c := range rows[i] {
			rows[i][c] = NewString(fmt.Sprintf("%s %d.%d", name, i, c))
		}
	}
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	return tab
}

// checkCols holds every column vector of b to the rows it has loaded.
func checkCols(t *testing.T, b *Batch, ncols int) {
	t.Helper()
	for c := 0; c < ncols; c++ {
		vec := b.Col(c)
		if len(vec) != b.Len() {
			t.Fatalf("column %d: %d values for %d rows", c, len(vec), b.Len())
		}
		for i, v := range vec {
			if v != b.Row(i)[c] {
				t.Fatalf("column %d row %d: vector holds %v, row %v", c, i, v, b.Row(i)[c])
			}
		}
	}
}

// checkCleared fails if anything b ever held — rows or column values, at any
// width it was loaded at — is still reachable through it.
func checkCleared(t *testing.T, b *Batch) {
	t.Helper()
	if b.Len() != 0 {
		t.Fatalf("cleared batch has %d rows", b.Len())
	}
	for i, r := range b.rows[:cap(b.rows)] {
		if r != nil {
			t.Fatalf("cleared batch still holds row slot %d: %v", i, r)
		}
	}
	for c, vec := range b.cols[:cap(b.cols)] {
		for i, v := range vec[:cap(vec)] {
			if v != (Value{}) {
				t.Fatalf("cleared batch still holds column %d value %d: %v", c, i, v)
			}
		}
	}
}

// TestBatchAcrossWidthsAndClear reuses one batch over a wide table, a narrow
// one and the wide one again, clearing it in between as a pooled batch is:
// every column vector is the current table's, and a cleared batch pins
// nothing of any table it was loaded from.
func TestBatchAcrossWidthsAndClear(t *testing.T) {
	wide, narrow := batchTable(t, "wide", 6, 300), batchTable(t, "narrow", 2, 500)
	var b Batch
	for round, tab := range []*Table{wide, narrow, wide, narrow} {
		v, ncols := tab.View(), tab.Schema.Len()
		for lo := 0; lo < v.NumSlots(); lo += 128 {
			v.ScanBatch(lo, lo+128, &b)
			checkCols(t, &b, ncols)
		}
		ids := []RowID{7, 3, 250, 1}
		v.FetchBatch(ids, &b)
		if b.Len() != len(ids) {
			t.Fatalf("round %d: fetched %d rows, want %d", round, b.Len(), len(ids))
		}
		for i, id := range ids {
			if want := v.rows[id]; b.Row(i)[0] != want[0] {
				t.Fatalf("round %d: fetched row %d is %v, want %v", round, i, b.Row(i), want)
			}
		}
		checkCols(t, &b, ncols)
		b.Clear()
		checkCleared(t, &b)
	}
	if cap(b.cols) < 6 {
		t.Fatalf("batch kept %d column vectors, want the widest table's 6", cap(b.cols))
	}
}
