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

// TestSubSeedStreams pins the independence properties the seed registry is
// for: same path same stream, any differing element a different stream.
func TestSubSeedStreams(t *testing.T) {
	if Sub(1, StreamTransfer, 0) != Sub(1, StreamTransfer, 0) {
		t.Fatal("Sub is not deterministic")
	}
	seen := map[int64][]int64{}
	for base := int64(0); base < 3; base++ {
		for stream := StreamTransfer; stream <= StreamRepair; stream++ {
			for r := int64(0); r < 4; r++ {
				s := Sub(base, stream, r)
				if prev, dup := seen[s]; dup {
					t.Fatalf("stream collision: (%d,%d,%d) and %v both derive %d",
						base, stream, r, prev, s)
				}
				seen[s] = []int64{base, stream, r}
			}
		}
	}
	// Path structure matters: (a,b) must not collide with (b,a) or (a+b).
	if Sub(1, 2, 3) == Sub(1, 3, 2) || Sub(1, 2, 3) == Sub(1, 5) {
		t.Fatal("Sub collapses structurally different paths")
	}
}
