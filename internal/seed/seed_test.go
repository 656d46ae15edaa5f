package seed

import "testing"

// TestStreamNumbering pins every stream identity's value. The constants are
// an iota block, so deleting or inserting one in the middle would silently
// renumber every later stream and re-seed every advised layout, replay and
// chaos scenario; a retired stream must leave its slot (or go last).
func TestStreamNumbering(t *testing.T) {
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"StreamTransfer", StreamTransfer, 1},
		{"StreamAnneal", StreamAnneal, 2},
		{"StreamProjGrad", StreamProjGrad, 3},
		{"StreamAdvisor", StreamAdvisor, 4},
		{"StreamReplay", StreamReplay, 5},
		{"StreamCalibrate", StreamCalibrate, 6},
		{"StreamRepair", StreamRepair, 7},
		{"StreamControl", StreamControl, 8},
		{"StreamChaos", StreamChaos, 9},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestSubGolden pins the derivation itself: a change to the mixing function
// or the path folding would re-seed every stream just as a renumbering would.
func TestSubGolden(t *testing.T) {
	const want int64 = 2160111858269849443
	if got := Sub(0, StreamTransfer, 0); got != want {
		t.Fatalf("Sub(0, StreamTransfer, 0) = %d, want %d", got, want)
	}
}
