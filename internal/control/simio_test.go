package control

import (
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/migrate"
)

// simCopy runs a one-step, unjournaled migration engine copy of size bytes
// between two SimIO devices to completion and reports whether it finished.
func simCopy(size int64) bool {
	devs := []SimDevice{
		{Name: "a", Capacity: 1 << 30, BytesPerSec: 256 << 20, FailAt: -1},
		{Name: "b", Capacity: 1 << 30, BytesPerSec: 256 << 20, FailAt: -1},
	}
	sim := NewSimIO(devs, 0)
	base := layout.New(1, 2)
	base.Set(0, 0, 1)
	steps := []migrate.Step{{Move: layout.Move{Object: 0, From: 0, To: 1, Fraction: 1, Bytes: size}}}
	var res *migrate.Result
	eng, err := migrate.NewEngine(sim, base, steps, migrate.Options{}, func(r *migrate.Result) { res = r })
	if err != nil {
		return false
	}
	eng.Start()
	for res == nil {
		sim.Advance(1)
	}
	return res.Done
}

// TestSimCopyAllocFree: the simulated copy loop allocates nothing per chunk,
// so a copy of twice the chunks allocates no more than the shorter one.
func TestSimCopyAllocFree(t *testing.T) {
	if !simCopy(64<<20) || !simCopy(128<<20) {
		t.Fatal("simulated copy did not finish")
	}
	short := testing.AllocsPerRun(20, func() { simCopy(64 << 20) })
	long := testing.AllocsPerRun(20, func() { simCopy(128 << 20) })
	if long > short {
		t.Fatalf("a 128 MiB copy allocates %v times, a 64 MiB copy %v: the copy loop allocates per chunk", long, short)
	}
}

// BenchmarkSimCopy times a 64 MiB (64-chunk) simulated copy; run it with
// -benchmem to see the allocations per copy.
func BenchmarkSimCopy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !simCopy(64 << 20) {
			b.Fatal("simulated copy did not finish")
		}
	}
}
