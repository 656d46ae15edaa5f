package costmodel

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"dblayout/internal/storage"
)

func TestCurveAt(t *testing.T) {
	c := Curve{Contention: []float64{0, 2, 4}, Cost: []float64{1e-3, 3e-3, 5e-3}}
	cases := []struct{ chi, want float64 }{
		{-1, 1e-3}, {0, 1e-3}, {1, 2e-3}, {2, 3e-3}, {3, 4e-3}, {4, 5e-3}, {10, 5e-3},
	}
	for _, tc := range cases {
		if got := c.At(tc.chi); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", tc.chi, got, tc.want)
		}
	}
}

func TestCurveValid(t *testing.T) {
	bad := []Curve{
		{},
		{Contention: []float64{0, 1}, Cost: []float64{1e-3}},
		{Contention: []float64{0, 0}, Cost: []float64{1e-3, 2e-3}},
		{Contention: []float64{0, 1}, Cost: []float64{1e-3, -1}},
	}
	for i, c := range bad {
		if c.Valid() == nil {
			t.Errorf("curve %d should be invalid", i)
		}
	}
	good := Curve{Contention: []float64{0, 1}, Cost: []float64{1e-3, 2e-3}}
	if err := good.Valid(); err != nil {
		t.Errorf("good curve rejected: %v", err)
	}
}

// flatTable builds a table whose cost equals a known separable function so
// interpolation can be checked analytically.
func flatTable() Table {
	sizes := []float64{4096, 16384, 65536}
	runs := []float64{1, 8, 64}
	t := Table{Sizes: sizes, RunCounts: runs}
	t.Curves = make([][]Curve, len(sizes))
	for si := range sizes {
		t.Curves[si] = make([]Curve, len(runs))
		for ri := range runs {
			base := 1e-3 * float64(si+1) * float64(ri+1)
			t.Curves[si][ri] = Curve{
				Contention: []float64{0, 4},
				Cost:       []float64{base, 2 * base},
			}
		}
	}
	return t
}

func TestTableLookupAtGridPoints(t *testing.T) {
	tab := flatTable()
	for si, s := range tab.Sizes {
		for ri, r := range tab.RunCounts {
			want := 1e-3 * float64(si+1) * float64(ri+1)
			if got := tab.Lookup(s, r, 0); math.Abs(got-want) > 1e-12 {
				t.Errorf("Lookup(%g,%g,0) = %g, want %g", s, r, got, want)
			}
		}
	}
}

func TestTableLookupClamps(t *testing.T) {
	tab := flatTable()
	if got := tab.Lookup(1024, 0.5, -3); got != tab.Lookup(4096, 1, 0) {
		t.Errorf("below-range lookup not clamped: %g", got)
	}
	if got := tab.Lookup(1<<30, 1e6, 100); got != tab.Lookup(65536, 64, 4) {
		t.Errorf("above-range lookup not clamped: %g", got)
	}
}

func TestTableLookupInterpolatesMonotonically(t *testing.T) {
	tab := flatTable()
	prev := 0.0
	for s := 4096.0; s <= 65536; s *= 1.3 {
		got := tab.Lookup(s, 1, 0)
		if got < prev {
			t.Fatalf("interpolation not monotone in size at %g", s)
		}
		prev = got
	}
}

// Property: lookups are always within the min/max cost of the table.
func TestLookupBoundsProperty(t *testing.T) {
	tab := flatTable()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range tab.Curves {
		for _, c := range row {
			for _, v := range c.Cost {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
	}
	f := func(s, r, chi uint32) bool {
		size := 1000 + float64(s%100000)
		run := 0.5 + float64(r%200)
		c := float64(chi%16) - 2
		got := tab.Lookup(size, run, c)
		return got >= lo-1e-12 && got <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func diskFactory(e *storage.Engine) storage.Device {
	return storage.NewDisk(e, "cal-disk", storage.Disk15KConfig())
}

func ssdFactory(e *storage.Engine) storage.Device {
	return storage.NewSSD(e, "cal-ssd", storage.SSD32Config())
}

func TestCalibrateDiskShape(t *testing.T) {
	m := Calibrate("disk15k", diskFactory, FastGrid())
	if err := m.Valid(); err != nil {
		t.Fatal(err)
	}

	// Sequential requests must be much cheaper than random at zero
	// contention...
	seq := m.Cost(false, 8192, 64, 0)
	rnd := m.Cost(false, 8192, 1, 0)
	if seq >= rnd/4 {
		t.Errorf("sequential cost %.3gms not ≪ random %.3gms at chi=0", seq*1e3, rnd*1e3)
	}
	// ...and the advantage must collapse under heavy contention (Fig. 8).
	seqHi := m.Cost(false, 8192, 64, 6)
	if seqHi < 2*seq {
		t.Errorf("no interference collapse: chi=0 %.3gms vs chi=6 %.3gms", seq*1e3, seqHi*1e3)
	}
	// Random request cost should not *increase* much with contention
	// (scheduling gains; Fig. 8 shows it gently decreasing).
	rndHi := m.Cost(false, 8192, 1, 6)
	if rndHi > rnd*1.1 {
		t.Errorf("random cost grew with contention: %.3gms -> %.3gms", rnd*1e3, rndHi*1e3)
	}
	// Bigger requests cost more (transfer component).
	if m.Cost(false, 65536, 1, 0) <= m.Cost(false, 8192, 1, 0) {
		t.Errorf("64K random not costlier than 8K")
	}
}

func TestCalibrateSSDShape(t *testing.T) {
	m := Calibrate("ssd", ssdFactory, FastGrid())
	if err := m.Valid(); err != nil {
		t.Fatal(err)
	}
	// Flat with respect to sequentiality and contention.
	r1 := m.Cost(false, 8192, 1, 0)
	r64 := m.Cost(false, 8192, 64, 0)
	rHi := m.Cost(false, 8192, 1, 6)
	if math.Abs(r1-r64)/r1 > 0.05 || math.Abs(r1-rHi)/r1 > 0.05 {
		t.Errorf("SSD model not flat: %.4g / %.4g / %.4g ms", r1*1e3, r64*1e3, rHi*1e3)
	}
	// Writes slower than reads.
	if m.Cost(true, 8192, 1, 0) <= r1 {
		t.Errorf("SSD write not slower than read")
	}
}

func TestModelSaveLoad(t *testing.T) {
	m := Calibrate("disk15k", diskFactory, Grid{
		Sizes: []int64{8192}, RunCounts: []int64{1, 8},
		Competitors: []int{0, 2}, RequestsPerCell: 200,
	})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Target != "disk15k" {
		t.Errorf("target = %q", m2.Target)
	}
	if a, b := m.Cost(false, 8192, 4, 1), m2.Cost(false, 8192, 4, 1); a != b {
		t.Errorf("loaded model differs: %g vs %g", a, b)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte(`{"target":"x"}`))); err == nil {
		t.Error("empty model accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestCacheMemoizes(t *testing.T) {
	c := NewCache()
	calls := 0
	factory := func(e *storage.Engine) storage.Device {
		calls++
		return diskFactory(e)
	}
	g := Grid{Sizes: []int64{8192}, RunCounts: []int64{1}, Competitors: []int{0}, RequestsPerCell: 100}
	m1 := c.Get("d", factory, g)
	m2 := c.Get("d", factory, g)
	if m1 != m2 {
		t.Error("cache returned different models")
	}
	if calls == 0 {
		t.Error("factory never called")
	}
	first := calls
	c.Get("d", factory, g)
	if calls != first {
		t.Error("cache recalibrated")
	}
}

func TestCalibrationDeterminism(t *testing.T) {
	g := Grid{Sizes: []int64{8192}, RunCounts: []int64{8}, Competitors: []int{2}, RequestsPerCell: 300}
	a := Calibrate("d", diskFactory, g)
	b := Calibrate("d", diskFactory, g)
	if a.Read.Curves[0][0].Cost[0] != b.Read.Curves[0][0].Cost[0] {
		t.Error("calibration not deterministic")
	}
}

// TestValidRejectsAxisWithoutLog pins that every axis point must have a
// finite logarithm: interpolation is in log space, so a zero, negative, NaN
// or infinite point turns lookups into NaN.
func TestValidRejectsAxisWithoutLog(t *testing.T) {
	for name, mutate := range map[string]func(*Table){
		"zero size":     func(tb *Table) { tb.Sizes[0] = 0 },
		"negative size": func(tb *Table) { tb.Sizes[0] = -4096 },
		"NaN size":      func(tb *Table) { tb.Sizes[1] = math.NaN() },
		"infinite size": func(tb *Table) { tb.Sizes[2] = math.Inf(1) },
		"zero run":      func(tb *Table) { tb.RunCounts[0] = 0 },
		"NaN run":       func(tb *Table) { tb.RunCounts[0] = math.NaN() },
		"infinite run":  func(tb *Table) { tb.RunCounts[2] = math.Inf(1) },
	} {
		tab := flatTable()
		mutate(&tab)
		if err := tab.Valid(); err == nil {
			t.Errorf("%s: table accepted", name)
		}
	}
	if err := (&Table{Sizes: []float64{}, RunCounts: []float64{1}}).Valid(); err == nil {
		t.Error("empty size axis accepted")
	}

	// A saved model with a zero size point is refused at Load, not priced
	// as NaN afterwards.
	tab := Table{Sizes: []float64{0, 8192}, RunCounts: []float64{1}}
	curve := Curve{Contention: []float64{0, 4}, Cost: []float64{1e-3, 2e-3}}
	tab.Curves = [][]Curve{{curve}, {curve}}
	var buf bytes.Buffer
	if err := (&Model{Target: "x", Read: tab, Write: flatTable()}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("model with a zero size point loaded")
	}
}

// TestCellMatchesLiteralLookup pins that a located cell, on a table with
// log axes (Load) and on a literal one, prices every point with the bits of
// the literal table's Lookup, and that Save output carries no log axes.
func TestCellMatchesLiteralLookup(t *testing.T) {
	lit := flatTable()
	var buf bytes.Buffer
	if err := (&Model{Target: "x", Read: lit, Write: lit}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	m, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Read.logSizes == nil || m.Read.logRuns == nil || lit.logSizes != nil {
		t.Fatal("log axes: Load must fill them, a literal has none")
	}
	var again bytes.Buffer
	if err := m.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != saved {
		t.Error("a loaded model saves differently")
	}
	f := func(s, r, chi uint32) bool {
		size := 1000 + float64(s%100000)*0.7
		run := 0.5 + float64(r%2000)*0.05
		c := float64(chi%1600)/100 - 2
		want := math.Float64bits(lit.Lookup(size, run, c))
		return math.Float64bits(lit.Cell(size, run).At(c)) == want &&
			math.Float64bits(m.Read.Cell(size, run).At(c)) == want &&
			math.Float64bits(m.Read.Lookup(size, run, c)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	cal := Calibrate("d", diskFactory, Grid{Sizes: []int64{8192, 65536}, RunCounts: []int64{1, 8},
		Competitors: []int{0}, RequestsPerCell: 50})
	if cal.Read.logSizes == nil || cal.Write.logRuns == nil {
		t.Error("Calibrate left the log axes empty")
	}
}
