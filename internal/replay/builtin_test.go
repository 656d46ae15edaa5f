package replay

import (
	"bytes"
	"fmt"
	"testing"

	"dblayout/internal/costmodel"
	"dblayout/internal/storage"
)

// handWritten are the calibration factories the built-in device types had
// before they became one table: the reference the table must reproduce.
var handWritten = map[string]costmodel.TargetFactory{
	"disk15k": func(e *storage.Engine) storage.Device {
		return storage.NewDisk(e, "disk", storage.Disk15KConfig())
	},
	"disk7200": func(e *storage.Engine) storage.Device {
		return storage.NewDisk(e, "disk", storage.Disk7200Config())
	},
	"ssd": func(e *storage.Engine) storage.Device {
		return storage.NewSSD(e, "ssd", storage.SSD32Config())
	},
	"raid0x3": func(e *storage.Engine) storage.Device {
		members := make([]storage.Device, 3)
		for i := range members {
			members[i] = storage.NewDisk(e, fmt.Sprintf("m%d", i), storage.Disk15KConfig())
		}
		return storage.NewRAID0(e, "raid", storage.DefaultStripeUnit, members...)
	},
}

func saved(t *testing.T, m *costmodel.Model) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestBuiltinCalibratesLikeHandWrittenFactories pins that every built-in
// device type, and cmd/calibrate's raid0xN through RAID0Disks, calibrates
// to byte-identical saved models through its DeviceSpec.
func TestBuiltinCalibratesLikeHandWrittenFactories(t *testing.T) {
	type run struct {
		typ  string
		grid costmodel.Grid
	}
	runs := []run{{"disk15k", costmodel.FastGrid()}, {"disk7200", costmodel.FastGrid()}, {"ssd", costmodel.FastGrid()}}
	if !testing.Short() {
		runs = append(runs, run{"disk15k", costmodel.DefaultGrid()})
	}
	for _, r := range runs {
		got, err := CalibrateBuiltin(r.typ, r.grid)
		if err != nil {
			t.Fatal(err)
		}
		want := costmodel.Calibrate(r.typ, handWritten[r.typ], r.grid)
		if !bytes.Equal(saved(t, got), saved(t, want)) {
			t.Errorf("%s on a %d-size grid: saved model differs from the hand-written factory's", r.typ, len(r.grid.Sizes))
		}
	}
	got := costmodel.Calibrate("raid0x3", RAID0Disks("raid0x3", 3).Factory(), costmodel.FastGrid())
	want := costmodel.Calibrate("raid0x3", handWritten["raid0x3"], costmodel.FastGrid())
	if !bytes.Equal(saved(t, got), saved(t, want)) {
		t.Error("raid0x3: saved model differs from the hand-written factory's")
	}
}

// TestBuiltin pins the table's names, default capacities and capacity
// override, and its refusal of anything else.
func TestBuiltin(t *testing.T) {
	for typ, def := range map[string]int64{
		"disk15k":  storage.Disk15KConfig().CapacityBytes,
		"disk7200": storage.Disk7200Config().CapacityBytes,
		"ssd":      storage.SSD32Config().CapacityBytes,
	} {
		s, err := Builtin(typ, "t0", 0)
		if err != nil || s.Name != "t0" || s.Capacity() != def || s.Validate() != nil {
			t.Fatalf("Builtin(%q) = %+v, %v; want t0 at %d bytes", typ, s, err, def)
		}
		if s, _ := Builtin(typ, "t0", 1<<30); s.Capacity() != 1<<30 {
			t.Fatalf("Builtin(%q) with 1 GiB: capacity %d", typ, s.Capacity())
		}
	}
	if _, err := Builtin("raid0x3", "t0", 0); err == nil {
		t.Fatal("raid0x3 is not a document device type")
	}
	const want = `unknown model "floppy" (want disk15k, disk7200 or ssd)`
	if _, err := CalibrateBuiltin("floppy", costmodel.FastGrid()); err == nil || err.Error() != want {
		t.Fatalf("CalibrateBuiltin(floppy): %v, want %q", err, want)
	}
}
