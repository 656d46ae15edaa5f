package replay

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"dblayout/internal/benchdb"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
)

// TestSimulatorGolden pins the simulator's output bits: the SHA-256 of the
// saved cost model of every built-in device type and of a RAID0 and a RAID5
// group on the fast grid (and of disk15k on the full grid, which -short
// skips), and one short consolidated replay's trace bytes, elapsed time and
// tpmC. A change that only makes the simulator cheaper to drive (fewer
// allocations, calibration cells measured in parallel) must leave every one
// of them as it is; one that moves them changes every calibrated model,
// trace and figure.
// The values were recorded on amd64, where Go never fuses a multiply and an
// add; other architectures may, so they skip.
func TestSimulatorGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64, not %s", runtime.GOARCH)
	}
	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	for _, c := range []struct {
		typ     string
		factory costmodel.TargetFactory // nil for a built-in type
		full    bool
		want    string
	}{
		{"disk15k", nil, false, "f146fe37d5653d2ca0505475e72c59f8778fbac6dbe269310d267f63ae442f60"},
		{"disk7200", nil, false, "5ce6cd1423c90fdda1527a4c49dd37bce8103a69797c987bab498132b9acbf1c"},
		{"ssd", nil, false, "572e5979bbb84689289dbc20f5a109c77177dea04fadd93cbfef9ccf6756bfa6"},
		{"raid0x3", RAID0Disks("raid0x3", 3).Factory(), false, "7f64835eebff1b452e862ce5a9df8b7b54386a1478a3f527a4d57a5dae303d22"},
		{"raid5x4", RAID5Disks("raid5x4", 4).Factory(), false, "daba7a8696b84cd905869127dee3df4cc3829a18a314b0ed17e6b7161a2fe157"},
		{"disk15k", nil, true, "b29649b2bd3533a22086bffd01b51482274b5d5b53d7cd1008358366f1d951e4"},
	} {
		name := c.typ + "/fast"
		grid := costmodel.FastGrid()
		if c.full {
			name, grid = c.typ+"/full", costmodel.DefaultGrid()
		}
		t.Run(name, func(t *testing.T) {
			if c.full && testing.Short() {
				t.Skip("-short skips the full-grid calibration")
			}
			var m *costmodel.Model
			if c.factory != nil {
				m = costmodel.Calibrate(c.typ, c.factory, grid)
			} else {
				var err error
				if m, err = CalibrateBuiltin(c.typ, grid); err != nil {
					t.Fatal(err)
				}
			}
			if got := sum(saved(t, m)); got != c.want {
				t.Errorf("Save bytes SHA-256 %s, want %s", got, c.want)
			}
		})
	}

	t.Run("consolidated replay", func(t *testing.T) {
		olap := benchdb.OLAP121()
		olap.Queries = olap.Queries[:2]
		oltp := benchdb.OLTP()
		objects := append(append([]layout.Object{}, olap.Catalog.Objects...), oltp.Catalog.Objects...)
		sys := &System{
			Objects: objects,
			Devices: []DeviceSpec{Disk15K("d0"), Disk15K("d1"), Disk15K("d2"), SSD("s0", 0)},
		}
		see := layout.SEE(len(objects), len(sys.Devices))
		olapRes, oltpRes, err := RunConsolidated(sys, see, olap, oltp, 10, Options{Seed: 7, RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if _, err := olapRes.Trace.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		const (
			wantTrace   = "6be6e284f3778a125385af29db6ddfd8ea1e0cbc71197f8d87ca166cd822b60e"
			wantElapsed = uint64(0x40711fa85f43b7f6)
			wantTpmC    = uint64(0x407b4da8465a0c4f)
		)
		got, elapsed, tpmC := sum(b.Bytes()), math.Float64bits(olapRes.Elapsed), math.Float64bits(oltpRes.TpmC)
		if got != wantTrace || elapsed != wantElapsed || tpmC != wantTpmC {
			t.Errorf("trace SHA-256 %s (%d records), Elapsed %.17g (bits %#x), TpmC %.17g (bits %#x); want %s, bits %#x and %#x",
				got, olapRes.Trace.Len(), olapRes.Elapsed, elapsed, oltpRes.TpmC, tpmC, wantTrace, wantElapsed, wantTpmC)
		}
	})
}
