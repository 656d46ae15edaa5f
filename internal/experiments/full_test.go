package experiments

import "testing"

// These tests run the paper-scale experiments and log the reproduced tables.
// They are skipped with -short; the quick variants in experiments_test.go
// cover the same code paths at reduced scale.

// full is the Config the paper-scale tests share, so they calibrate each
// default-grid model and trace each study system once.
var full = NewConfig()

func TestFullHeterogeneous(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment")
	}
	rows, err := Heterogeneous(full)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", Fig17Table(rows))
}

func TestFullSSD(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment")
	}
	rows, err := SSDStudy(full)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", Fig18Table(rows))
}

func TestFullConsolidation(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment")
	}
	res, err := Consolidation(full)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s", res.Fig15Table(), res.Fig16Table())
}

func TestFullAutoAdmin(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment")
	}
	res, err := AutoAdminStudy(full)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Fig20Table())
}

func TestFullTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment")
	}
	rows, err := Timing(full)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", Fig19Table(rows))
}

func TestFullFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale experiment")
	}
	series, err := Fig8CostSlice(full)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", Fig8Table(series))
}
