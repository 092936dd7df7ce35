package kvstore

import (
	"errors"
	"fmt"
	"testing"
)

func meterTable(t *testing.T) *Table {
	t.Helper()
	s := newStore(t)
	tbl, err := NewTable(s, "meters", Schema{
		Columns: []string{"meter_id", "feeder", "zone", "kwh"},
	}, "feeder", "zone")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func meterRow(id, feeder, zone, kwh string) Row {
	return Row{"meter_id": id, "feeder": feeder, "zone": zone, "kwh": kwh}
}

func TestTableInsertGet(t *testing.T) {
	tbl := meterTable(t)
	if err := tbl.Insert(meterRow("m1", "f1", "z1", "10.5")); err != nil {
		t.Fatal(err)
	}
	r, err := tbl.Get("m1")
	if err != nil {
		t.Fatal(err)
	}
	if r["feeder"] != "f1" || r["kwh"] != "10.5" {
		t.Fatalf("row = %v", r)
	}
}

func TestTableDuplicateKeyRejected(t *testing.T) {
	tbl := meterTable(t)
	if err := tbl.Insert(meterRow("m1", "f1", "z1", "1")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(meterRow("m1", "f2", "z2", "2")); !errors.Is(err, ErrDupKey) {
		t.Fatalf("err = %v, want ErrDupKey", err)
	}
}

func TestTableSchemaValidation(t *testing.T) {
	tbl := meterTable(t)
	if err := tbl.Insert(Row{"meter_id": "m1"}); !errors.Is(err, ErrSchema) {
		t.Fatalf("short row: %v", err)
	}
	bad := meterRow("m1", "f1", "z1", "1")
	delete(bad, "kwh")
	bad["extra"] = "x"
	if err := tbl.Insert(bad); !errors.Is(err, ErrSchema) {
		t.Fatalf("wrong columns: %v", err)
	}
	if err := tbl.Insert(meterRow("", "f1", "z1", "1")); !errors.Is(err, ErrSchema) {
		t.Fatalf("empty pk: %v", err)
	}
	if err := tbl.Insert(meterRow("a/b", "f1", "z1", "1")); !errors.Is(err, ErrSchema) {
		t.Fatalf("pk with separator: %v", err)
	}
}

func TestTableSecondaryIndexLookup(t *testing.T) {
	tbl := meterTable(t)
	for i := 0; i < 10; i++ {
		feeder := fmt.Sprintf("f%d", i%3)
		if err := tbl.Insert(meterRow(fmt.Sprintf("m%02d", i), feeder, "z1", "1")); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := tbl.Lookup("feeder", "f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Lookup returned %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r["feeder"] != "f1" {
			t.Fatalf("wrong feeder in lookup: %v", r)
		}
	}
}

func TestTableLookupUnindexedColumn(t *testing.T) {
	tbl := meterTable(t)
	if _, err := tbl.Lookup("kwh", "1"); !errors.Is(err, ErrNotIndexed) {
		t.Fatalf("err = %v, want ErrNotIndexed", err)
	}
}

func TestTableUpsertMaintainsIndexes(t *testing.T) {
	tbl := meterTable(t)
	if err := tbl.Insert(meterRow("m1", "f1", "z1", "1")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Upsert(meterRow("m1", "f2", "z1", "2")); err != nil {
		t.Fatal(err)
	}
	old, err := tbl.Lookup("feeder", "f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 0 {
		t.Fatalf("stale index entry survives upsert: %v", old)
	}
	cur, err := tbl.Lookup("feeder", "f2")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) != 1 || cur[0]["kwh"] != "2" {
		t.Fatalf("Lookup after upsert = %v", cur)
	}
}

func TestTableDeleteCleansIndexes(t *testing.T) {
	tbl := meterTable(t)
	if err := tbl.Insert(meterRow("m1", "f1", "z1", "1")); err != nil {
		t.Fatal(err)
	}
	if !tbl.Delete("m1") {
		t.Fatal("Delete missed")
	}
	if tbl.Delete("m1") {
		t.Fatal("double delete")
	}
	rows, err := tbl.Lookup("feeder", "f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatal("index entry survives delete")
	}
}

func TestTableScanOrdered(t *testing.T) {
	tbl := meterTable(t)
	for _, id := range []string{"m3", "m1", "m2"} {
		if err := tbl.Insert(meterRow(id, "f1", "z1", "1")); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := tbl.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0]["meter_id"] != "m1" || rows[2]["meter_id"] != "m3" {
		t.Fatalf("Scan = %v", rows)
	}
	n, err := tbl.Count()
	if err != nil || n != 3 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestTableRowsEncryptedAtRest(t *testing.T) {
	s := newStore(t)
	tbl, err := NewTable(s, "m", Schema{Columns: []string{"id", "secret"}}, "secret")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{"id": "a", "secret": "CONSUMPTION-PROFILE"}); err != nil {
		t.Fatal(err)
	}
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		for i := 0; i+10 < len(n.value); i++ {
			if string(n.value[i:i+10]) == "CONSUMPTIO" {
				t.Fatal("row plaintext at rest")
			}
		}
	}
}

func TestTableBadIndexColumn(t *testing.T) {
	s := newStore(t)
	if _, err := NewTable(s, "x", Schema{Columns: []string{"id"}}, "ghost"); !errors.Is(err, ErrNoSuchCol) {
		t.Fatalf("err = %v, want ErrNoSuchCol", err)
	}
	if _, err := NewTable(s, "x", Schema{}); !errors.Is(err, ErrSchema) {
		t.Fatalf("err = %v, want ErrSchema", err)
	}
}

func TestTableSurvivesSnapshot(t *testing.T) {
	s := newStore(t)
	tbl, err := NewTable(s, "meters", Schema{Columns: []string{"id", "feeder"}}, "feeder")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{"id": "m1", "feeder": "f1"}); err != nil {
		t.Fatal(err)
	}
	// A table keeps all its state, indexes included, as store records: a
	// store rebuilt from those records (what recovery replay does) serves
	// the same rows.
	pairs, err := s.Range("", "")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewStore(storeKey(), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := restored.Put(p.Key, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	tbl2, err := NewTable(restored, "meters", Schema{Columns: []string{"id", "feeder"}}, "feeder")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tbl2.Lookup("feeder", "f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["id"] != "m1" {
		t.Fatalf("rows after snapshot = %v", rows)
	}
}
