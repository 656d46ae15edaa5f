package nlp

import (
	"context"
	"fmt"
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/layouttest"
)

// benchSolve runs one multi-restart solve of the named strategy at the given
// worker count. The restart count is high enough that the worker pool, not
// the first descent, dominates the run — the configuration the ≥2x speedup
// acceptance criterion is measured on (compare the workers=1 and workers=4
// lines of the same solver, e.g. `go test -bench=Solve ./internal/nlp/`).
func benchSolve(b *testing.B, c solverCase, workers int) {
	inst := layouttest.Replicated(4, 8)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Seed: 1, Restarts: 8, Workers: workers, MaxIters: 400}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.solve(context.Background(), ev, inst, init, opt)
		if res.Layout == nil {
			b.Fatal("no layout")
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	for _, c := range solverCases() {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				benchSolve(b, c, workers)
			})
		}
	}
}

// paperScale builds the paper's largest problem shape: Replicated(40, 40) is
// N=160 objects on M=40 targets (cf. the scaling experiment of Fig. 12).
func paperScale(b *testing.B) (*layout.Instance, *layout.Evaluator, *layout.Layout) {
	b.Helper()
	inst := layouttest.Replicated(40, 40)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		b.Fatal(err)
	}
	return inst, ev, init
}

// BenchmarkSolvePaperScale runs a single-descent transfer solve at paper
// scale, capped at eight iterations so a CI smoke run stays short.
func BenchmarkSolvePaperScale(b *testing.B) {
	inst, ev, init := paperScale(b)
	opt := Options{Seed: 1, Restarts: NoRestarts, MaxIters: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := TransferSearch(context.Background(), ev, inst, init, opt)
		if res.Layout == nil {
			b.Fatal("no layout")
		}
	}
}

// BenchmarkSolveFleetScale runs a single-descent transfer solve at fleet
// scale — N=10000 objects on M=1000 targets, three orders of magnitude more
// object-target pairs than the paper's largest study. The sparse overlap
// representation, the sparse incremental kernel, and automatic candidate
// pruning (engaged here by the problem size) together keep one solve in
// seconds; the dense pre-sparse code path exhausted memory building the
// evaluator alone. Run with -benchtime=1x for a smoke reading.
func BenchmarkSolveFleetScale(b *testing.B) {
	inst := layouttest.Fleet(10000, 1000)
	ev := layout.NewEvaluator(inst)
	init, err := layout.InitialLayout(inst)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Seed: 1, Restarts: NoRestarts, MaxIters: 256}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := TransferSearch(context.Background(), ev, inst, init, opt)
		if res.Layout == nil {
			b.Fatal("no layout")
		}
	}
}

// BenchmarkMoveScoring measures the move-scoring primitive itself at paper
// scale: one tryMove per iteration. It must report 0 allocs/op — the
// kernel's zero-allocation contract for the hot loop.
func BenchmarkMoveScoring(b *testing.B) {
	inst, ev, init := paperScale(b)
	s := newTransferState(ev, inst, init.Clone())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := i % s.l.N
		from := -1
		for j := 0; j < s.l.M; j++ {
			if s.l.At(obj, j) > layout.Epsilon {
				from = j
				break
			}
		}
		if from < 0 {
			b.Fatalf("object %d has no active target", obj)
		}
		to := (from + 1 + i%(s.l.M-1)) % s.l.M
		if to == from {
			to = (to + 1) % s.l.M
		}
		s.tryMove(move{obj: obj, from: from, to: to, delta: s.l.At(obj, from) * 0.5})
	}
}
