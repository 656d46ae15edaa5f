package costmodel

import (
	"bytes"
	"runtime"
	"testing"

	"dblayout/internal/storage"
)

// TestCalibrateSameAtAnyWorkerCount: calibration cells are measured in
// parallel over GOMAXPROCS workers, and the saved model is the same bytes
// at one worker and at four. CI runs it under the race detector.
func TestCalibrateSameAtAnyWorkerCount(t *testing.T) {
	calibrateAt := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var b bytes.Buffer
		if err := Calibrate("d", diskFactory, FastGrid()).Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if one, four := calibrateAt(1), calibrateAt(4); !bytes.Equal(one, four) {
		t.Fatal("the saved model differs between 1 and 4 workers")
	}
}

// TestCalibrateAllocsFlat: a simulated request allocates nothing, so a
// fast-grid calibration of four times the requests per cell allocates no
// more than a few times more than the shorter one (slice growth, not one
// allocation per request).
func TestCalibrateAllocsFlat(t *testing.T) {
	calibrate := func(requests int) func() {
		g := FastGrid()
		g.RequestsPerCell = requests
		return func() { Calibrate("d", diskFactory, g) }
	}
	short := testing.AllocsPerRun(1, calibrate(400))
	long := testing.AllocsPerRun(1, calibrate(1600))
	if long > short+64 {
		t.Fatalf("a fast-grid calibration allocates %v times at 1600 requests per cell and %v at 400: the simulator allocates per request", long, short)
	}
}

// TestCalibrateReraisesCellPanic: a factory that panics in a worker
// goroutine panics Calibrate's caller with the same value, as it did when
// cells ran on the caller's goroutine.
func TestCalibrateReraisesCellPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer func() {
		if p := recover(); p != "no device" {
			t.Fatalf("recovered %v, want the factory's panic", p)
		}
	}()
	Calibrate("d", func(*storage.Engine) storage.Device { panic("no device") }, FastGrid())
}
