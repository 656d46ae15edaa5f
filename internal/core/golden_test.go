package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
	"dblayout/internal/nlp"
)

// layoutHash is an FNV-64a hash of l's fractions, bit for bit, in row-major
// order.
func layoutHash(l *layout.Layout) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < l.N; i++ {
		for j := 0; j < l.M; j++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(l.At(i, j)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// constrainedReplicated is Replicated(6, 6) under pins, bans and
// separations, on targets of 10 GiB each for 48 GiB of objects, so both the
// administrative constraints and capacity turn candidates away.
func constrainedReplicated() *layout.Instance {
	inst := layouttest.Replicated(6, 6)
	inst.Constraints = &layout.Constraints{
		Allow:    map[int][]int{0: {0, 1, 2}, 4: {3, 4, 5}, 12: {1, 3}},
		Deny:     map[int][]int{2: {0}, 6: {1, 2}, 10: {5}},
		Separate: [][2]int{{0, 1}, {4, 5}, {8, 9}, {12, 13}},
	}
	for _, t := range inst.Targets {
		t.Capacity = 10 << 30
	}
	return inst
}

// TestRecommendGolden pins the advisor's output bits: the final objective,
// the advise's total evaluation count (every solver, start and round) and a
// hash of the final layout. A change that only makes the evaluation kernel
// or a candidate scan faster must leave all three as they are; one that
// moves them changes what every caller gets. The heuristic+SEE case is
// dblayout.Recommend's default multi-start, two rounds from each start; the
// portfolio runs it once per solver and, on a tie, keeps transfer's layout.
// The polished fleet case pins PolishRegular where candidate widths are
// capped; it takes seconds, so -short skips it.
// The values were recorded on amd64, where Go never fuses a multiply and an
// add; other architectures may, so they skip.
func TestRecommendGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64, not %s", runtime.GOARCH)
	}
	r104 := layouttest.Replicated(10, 4)
	heuristic, err := layout.InitialLayout(r104)
	if err != nil {
		t.Fatal(err)
	}
	starts := []*layout.Layout{heuristic, layout.SEE(r104.N(), r104.M())}
	fleetPolish := fleetOptions()
	fleetPolish.SkipPolish = false
	for _, c := range []struct {
		name    string
		inst    *layout.Instance
		opt     Options
		objBits uint64
		evals   int
		hash    uint64
		long    bool // skipped under -short
	}{
		{"Replicated(10,4)", layouttest.Replicated(10, 4), Options{NLP: nlp.Options{Seed: 1}},
			0x401318c7e28240b7, 31148, 0x94a150b5e4ca6ee, false},
		{"Replicated(10,10)", layouttest.Replicated(10, 10), Options{NLP: nlp.Options{Seed: 1}},
			0x3ffe95dc6660687c, 279356, 0x74e41666a35c5f05, false},
		{"Fleet(1024,256)", layouttest.Fleet(1024, 256), fleetOptions(),
			0x3ff1a5e3fe2deb4e, 15338, 0xe43f866981068ecf, false},
		{"Fleet(1024,256) polished", layouttest.Fleet(1024, 256), fleetPolish,
			0x3ff1a5e3fe2deb4e, 15338, 0x190403908dac2d4b, true},
		{"Replicated(10,4) heuristic+SEE", r104, Options{NLP: nlp.Options{Seed: 1}, InitialLayouts: starts},
			0x4012f5b45c4be99b, 227432, 0x940830cb8307f538, false},
		{"portfolio Replicated(10,4) heuristic+SEE", r104, Options{Solver: SolverPortfolio, NLP: nlp.Options{Seed: 1}, InitialLayouts: starts},
			0x4012f5b45c4be99b, 382978, 0x940830cb8307f538, false},
		{"constrained Replicated(6,6)", constrainedReplicated(), Options{NLP: nlp.Options{Seed: 1}},
			0x3fff0189374bc6a8, 21296, 0xc479368dd2d60fae, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("a polished fleet advise takes seconds")
			}
			adv, err := New(c.inst, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := adv.Recommend()
			if err != nil {
				t.Fatal(err)
			}
			got := math.Float64bits(rec.FinalObjective)
			if h := layoutHash(rec.Final); got != c.objBits || rec.SolverEvals != c.evals || h != c.hash {
				t.Errorf("FinalObjective %.17g (bits %#x), SolverEvals %d, Final hash %#x; want bits %#x, %d evals, hash %#x",
					rec.FinalObjective, got, rec.SolverEvals, h, c.objBits, c.evals, c.hash)
			}
		})
	}
}
