package migrate

import (
	"errors"
	"fmt"
	"slices"

	"dblayout/internal/layout"
)

// StepKind classifies an executable migration step.
type StepKind uint8

const (
	// StepDirect copies data straight from its plan source to its plan
	// destination.
	StepDirect StepKind = iota
	// StepStageIn parks data on the scratch target to break a capacity
	// cycle; a later StepStageOut for the same plan move completes it.
	StepStageIn
	// StepStageOut moves previously staged data from the scratch target
	// to its plan destination.
	StepStageOut
)

func (k StepKind) String() string {
	switch k {
	case StepDirect:
		return "direct"
	case StepStageIn:
		return "stage-in"
	case StepStageOut:
		return "stage-out"
	}
	return fmt.Sprintf("StepKind(%d)", uint8(k))
}

// Step is one executable unit of a migration script. Each step is a single
// copy-then-commit data movement; staged plan moves expand into a StageIn /
// StageOut pair sharing the same MoveIndex.
type Step struct {
	Kind      StepKind    `json:"k"`
	Move      layout.Move `json:"m"` // the movement this step performs (From/To already resolved for staging)
	MoveIndex int         `json:"i"` // index of the originating move in the source plan
}

// ScratchSpec reserves part of a real target as staging space for breaking
// capacity cycles. The reservation is modeled honestly: while data is
// staged it occupies the scratch target in the layout matrix, so every
// intermediate state of a migration is a valid, capacity-checked layout.
type ScratchSpec struct {
	Target int   `json:"target"`
	Bytes  int64 `json:"bytes"`
}

// AutoScratch picks a scratch reservation for migrating between the two
// layouts: half the largest byte headroom that exists on some target under
// both endpoint layouts. It never reserves space on one of the failed
// targets (indices outside the target range are ignored): after an
// evacuation a failed target has the most free space of all, and nothing
// may be staged on it. A zero-Bytes spec means no usable target has slack —
// a deadlocked plan between such layouts is unexecutable.
func AutoScratch(from, to *layout.Layout, sizes, capacities []int64, failed ...int) ScratchSpec {
	best, bestBytes := -1, int64(0)
	for j := 0; j < len(capacities); j++ {
		if slices.Contains(failed, j) {
			continue
		}
		free := float64(capacities[j]) - from.TargetBytes(j, sizes)
		if f := float64(capacities[j]) - to.TargetBytes(j, sizes); f < free {
			free = f
		}
		if b := int64(free); b > bestBytes {
			best, bestBytes = j, b
		}
	}
	if best < 0 {
		return ScratchSpec{}
	}
	return ScratchSpec{Target: best, Bytes: bestBytes / 2}
}

// BuildScript turns a migration plan into an executable step sequence whose
// intermediate states never exceed any target's capacity under
// copy-then-commit semantics. It schedules the plan without the scratch
// reservation first, so a plan with a safe order becomes direct steps in
// that order. Only when that run ends in a capacity cycle and scratch.Bytes
// is positive does it schedule the plan again with the reservation, breaking
// cycles by staging the smallest deadlocked move through it; the reservation
// is validated only then.
//
// It returns a *CycleError when a cycle exists but no scratch was
// configured, a *ScratchError (unwrapping to ErrScratchExhausted) when the
// reservation is too small, and a *PlanOverflowError when some move can
// never fit regardless of order.
func BuildScript(from *layout.Layout, plan []layout.Move, sizes, capacities []int64, scratch ScratchSpec) ([]Step, error) {
	if err := checkPlanRefs(from, plan, sizes, capacities); err != nil {
		return nil, err
	}
	steps, err := schedule(from, plan, sizes, capacities, ScratchSpec{})
	var cyc *CycleError
	if errors.As(err, &cyc) && scratch.Bytes > 0 {
		return schedule(from, plan, sizes, capacities, scratch)
	}
	return steps, err
}

// checkPlanRefs validates plan indices and slice lengths against the layout.
func checkPlanRefs(from *layout.Layout, plan []layout.Move, sizes, capacities []int64) error {
	if len(sizes) != from.N || len(capacities) != from.M {
		return fmt.Errorf("layout: got %d sizes and %d capacities for a %dx%d layout",
			len(sizes), len(capacities), from.N, from.M)
	}
	for s, m := range plan {
		if m.Object < 0 || m.Object >= from.N {
			return fmt.Errorf("layout: plan step %d references object %d outside [0,%d)", s, m.Object, from.N)
		}
		if m.From < 0 || m.From >= from.M || m.To < 0 || m.To >= from.M {
			return fmt.Errorf("layout: plan step %d references targets %d->%d outside [0,%d)", s, m.From, m.To, from.M)
		}
		if m.From == m.To || m.Bytes < 0 {
			return fmt.Errorf("layout: plan step %d is degenerate (targets %d->%d, %d bytes)", s, m.From, m.To, m.Bytes)
		}
	}
	return nil
}

// schedule orders a plan first fit. Each round it completes the first staged
// move whose destination now has room, else runs the first pending move that
// fits, else stages the smallest stalled move that fits the unused
// reservation. A zero reservation stages nothing, so a stall ends the run
// with a *CycleError when the stalled moves wait on each other and a
// *PlanOverflowError otherwise.
func schedule(from *layout.Layout, plan []layout.Move, sizes, capacities []int64, scratch ScratchSpec) ([]Step, error) {
	staging := scratch.Bytes > 0
	if staging && (scratch.Target < 0 || scratch.Target >= from.M) {
		return nil, fmt.Errorf("migrate: scratch target %d outside [0,%d)", scratch.Target, from.M)
	}
	occ := make([]float64, from.M)
	for j := 0; j < from.M; j++ {
		occ[j] = from.TargetBytes(j, sizes)
	}
	scratchFree := scratch.Bytes
	if staging && occ[scratch.Target]+float64(scratch.Bytes) > float64(capacities[scratch.Target])+planSlack {
		return nil, fmt.Errorf("migrate: scratch reservation of %d bytes does not fit on target %d (%d of %d bytes used)",
			scratch.Bytes, scratch.Target, int64(occ[scratch.Target]), capacities[scratch.Target])
	}
	// free reports placeable bytes on target j for ordinary copies; the
	// unused part of the scratch reservation is off-limits to them.
	free := func(j int) float64 {
		f := float64(capacities[j]) - occ[j]
		if j == scratch.Target {
			f -= float64(scratchFree)
		}
		return f
	}
	// firstFit returns the position in idx of the first move whose copy
	// fits its destination now, or -1.
	firstFit := func(idx []int) int {
		for pi, i := range idx {
			if float64(plan[i].Bytes) <= free(plan[i].To)+planSlack {
				return pi
			}
		}
		return -1
	}

	pending := make([]int, len(plan)) // plan indices not yet started
	for i := range pending {
		pending[i] = i
	}
	var parked []int // plan indices staged on scratch, awaiting stage-out
	script := make([]Step, 0, len(plan))
	for len(pending)+len(parked) > 0 {
		if pi := firstFit(parked); pi >= 0 {
			idx := parked[pi]
			m := plan[idx]
			script = append(script, Step{
				Kind:      StepStageOut,
				Move:      layout.Move{Object: m.Object, From: scratch.Target, To: m.To, Fraction: m.Fraction, Bytes: m.Bytes},
				MoveIndex: idx,
			})
			occ[m.To] += float64(m.Bytes)
			occ[scratch.Target] -= float64(m.Bytes)
			scratchFree += m.Bytes
			parked = append(parked[:pi], parked[pi+1:]...)
			continue
		}
		if pi := firstFit(pending); pi >= 0 {
			idx := pending[pi]
			m := plan[idx]
			script = append(script, Step{Kind: StepDirect, Move: m, MoveIndex: idx})
			occ[m.To] += float64(m.Bytes)
			occ[m.From] -= float64(m.Bytes)
			pending = append(pending[:pi], pending[pi+1:]...)
			continue
		}
		// Stall. The staged copy always fits physically because staged
		// bytes only ever consume the reservation.
		stage, need := -1, int64(0)
		for pi, idx := range pending {
			b := plan[idx].Bytes
			if need == 0 || b < need {
				need = b
			}
			if staging && b <= scratchFree && (stage < 0 || b < plan[pending[stage]].Bytes) {
				stage = pi
			}
		}
		if stage < 0 {
			cyc := findPlanCycle(plan, pending)
			switch {
			case cyc != nil && !staging:
				return nil, cyc
			case cyc == nil && len(pending) > 0:
				m := plan[pending[0]]
				return nil, &PlanOverflowError{
					Step: pending[0], Move: m, NeedBytes: m.Bytes,
					FreeBytes: int64(free(m.To)),
				}
			}
			return nil, &ScratchError{Cycle: cyc, NeedBytes: need, FreeBytes: scratchFree}
		}
		idx := pending[stage]
		m := plan[idx]
		script = append(script, Step{
			Kind:      StepStageIn,
			Move:      layout.Move{Object: m.Object, From: m.From, To: scratch.Target, Fraction: m.Fraction, Bytes: m.Bytes},
			MoveIndex: idx,
		})
		occ[scratch.Target] += float64(m.Bytes)
		occ[m.From] -= float64(m.Bytes)
		scratchFree -= m.Bytes
		pending = append(pending[:stage], pending[stage+1:]...)
		parked = append(parked, idx)
	}
	return script, nil
}

// findPlanCycle looks for a dependency cycle among stalled moves: move m
// waits for space on m.To, which only stalled moves departing m.To can free.
// It returns a *CycleError for the first cycle found, or nil when the stall
// is acyclic (a plain overflow).
func findPlanCycle(plan []layout.Move, pending []int) *CycleError {
	byFrom := map[int][]int{} // source target -> stalled move indices
	for _, idx := range pending {
		byFrom[plan[idx].From] = append(byFrom[plan[idx].From], idx)
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[int]int{}
	var path []int
	var cycle []int
	var dfs func(idx int) bool
	dfs = func(idx int) bool {
		color[idx] = grey
		path = append(path, idx)
		for _, next := range byFrom[plan[idx].To] {
			switch color[next] {
			case white:
				if dfs(next) {
					return true
				}
			case grey:
				// Unwind the path back to the first occurrence of next.
				start := 0
				for i, p := range path {
					if p == next {
						start = i
						break
					}
				}
				cycle = append([]int(nil), path[start:]...)
				return true
			}
		}
		path = path[:len(path)-1]
		color[idx] = black
		return false
	}
	for _, idx := range pending {
		if color[idx] == white && dfs(idx) {
			break
		}
	}
	if cycle == nil {
		return nil
	}
	e := &CycleError{}
	for _, idx := range cycle {
		m := plan[idx]
		e.Moves = append(e.Moves, m)
		e.Objects = append(e.Objects, m.Object)
		e.Targets = append(e.Targets, m.To)
	}
	return e
}

// planSlack is the byte tolerance used when comparing float occupancies
// against integer capacities.
const planSlack = 0.5

// ScriptBytes sums the data volume a script copies, counting staged moves
// twice (once into scratch, once out).
func ScriptBytes(steps []Step) int64 {
	var total int64
	for _, s := range steps {
		total += s.Move.Bytes
	}
	return total
}

// applyStep commits a step's movement to the layout matrix.
func applyStep(l *layout.Layout, s Step) {
	m := s.Move
	l.Set(m.Object, m.From, clampFrac(l.At(m.Object, m.From)-m.Fraction))
	l.Set(m.Object, m.To, l.At(m.Object, m.To)+m.Fraction)
}

func clampFrac(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
