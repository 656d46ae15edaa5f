package migrate

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dblayout/internal/layout"
)

// checkScriptSafe simulates a script under copy-then-commit semantics and
// fails the test if any intermediate state exceeds a target's capacity or
// the final occupancies disagree with applying every step.
func checkScriptSafe(t *testing.T, from *layout.Layout, steps []Step, sizes, caps []int64) {
	t.Helper()
	occ := make([]float64, from.M)
	for j := 0; j < from.M; j++ {
		occ[j] = from.TargetBytes(j, sizes)
	}
	for i, s := range steps {
		m := s.Move
		if float64(m.Bytes) > float64(caps[m.To])-occ[m.To]+planSlack {
			t.Fatalf("step %d (%s %+v) transiently overflows target %d", i, s.Kind, m, m.To)
		}
		occ[m.To] += float64(m.Bytes)
		occ[m.From] -= float64(m.Bytes)
	}
	for j := range occ {
		if occ[j] > float64(caps[j])+planSlack || occ[j] < -planSlack {
			t.Fatalf("final occupancy of target %d is %g of %d", j, occ[j], caps[j])
		}
	}
}

// rotation builds the 3-object full-capacity rotation (a pure capacity
// cycle) plus a fourth, roomier target usable as scratch.
func rotation(t *testing.T) (from *layout.Layout, plan []layout.Move, sizes, caps []int64) {
	t.Helper()
	const sz = 100
	sizes = []int64{sz, sz, sz}
	caps = []int64{sz, sz, sz, 250}
	from = layout.New(3, 4)
	to := layout.New(3, 4)
	for i := 0; i < 3; i++ {
		from.Set(i, i, 1)
		to.Set(i, (i+1)%3, 1)
	}
	plan, err := layout.MigrationPlan(from, to, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return from, plan, sizes, caps
}

// swap builds two 100-byte objects, each alone on its own target, that
// trade places.
func swap(t *testing.T) (from *layout.Layout, plan []layout.Move, sizes []int64) {
	t.Helper()
	sizes = []int64{100, 100}
	from = layout.New(2, 2)
	from.Set(0, 0, 1)
	from.Set(1, 1, 1)
	to := layout.New(2, 2)
	to.Set(0, 1, 1)
	to.Set(1, 0, 1)
	plan, err := layout.MigrationPlan(from, to, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return from, plan, sizes
}

// TestBuildScriptDirectWhenOrderable: the rotation with any one roomy
// target needs no staging, only a safe order.
func TestBuildScriptDirectWhenOrderable(t *testing.T) {
	for roomy := 0; roomy < 3; roomy++ {
		from, plan, sizes, caps := rotation(t)
		caps[roomy] = 200
		steps, err := BuildScript(from, plan, sizes, caps, ScratchSpec{})
		if err != nil {
			t.Fatalf("roomy target %d: %v", roomy, err)
		}
		if len(steps) != len(plan) {
			t.Fatalf("roomy target %d: %d steps for %d moves", roomy, len(steps), len(plan))
		}
		for _, s := range steps {
			if s.Kind != StepDirect {
				t.Fatalf("roomy target %d: reorderable plan produced %s step", roomy, s.Kind)
			}
			if plan[s.MoveIndex] != s.Move {
				t.Fatalf("roomy target %d: step %+v does not run plan move %d", roomy, s.Move, s.MoveIndex)
			}
		}
		checkScriptSafe(t, from, steps, sizes, caps)
	}
}

// TestBuildScriptReordersTransientOverflow: the plan's own first move would
// overflow its destination, which only the second move frees; the script
// runs the second move first.
func TestBuildScriptReordersTransientOverflow(t *testing.T) {
	from, plan, sizes := swap(t)
	caps := []int64{200, 100}
	if plan[0].Object != 0 || plan[0].To != 1 {
		t.Fatalf("plan starts with %+v, want object 0 -> full target 1", plan[0])
	}
	steps, err := BuildScript(from, plan, sizes, caps, ScratchSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0].Kind != StepDirect || steps[0].MoveIndex != 1 ||
		steps[0].Move.Object != 1 || steps[0].Move.To != 0 {
		t.Fatalf("script %+v, want object 1 -> roomy target 0 first", steps)
	}
	checkScriptSafe(t, from, steps, sizes, caps)
}

// TestBuildScriptReportsOverflow: a move whose destination stays full,
// because no stalled move leaves it, can never run.
func TestBuildScriptReportsOverflow(t *testing.T) {
	sizes := []int64{100, 100}
	caps := []int64{100, 100}
	from := layout.New(2, 2)
	from.Set(0, 0, 1)
	from.Set(1, 1, 1)
	plan := []layout.Move{{Object: 0, From: 0, To: 1, Fraction: 1, Bytes: 100}}
	_, err := BuildScript(from, plan, sizes, caps, ScratchSpec{Target: 0, Bytes: 50})
	var ov *PlanOverflowError
	if !errors.As(err, &ov) {
		t.Fatalf("BuildScript = %v, want *PlanOverflowError", err)
	}
	if ov.Step != 0 || ov.NeedBytes != 100 || ov.FreeBytes != 0 {
		t.Errorf("overflow detail step=%d need=%d free=%d, want 0/100/0", ov.Step, ov.NeedBytes, ov.FreeBytes)
	}
	if !strings.Contains(ov.Error(), "bytes free") {
		t.Errorf("unhelpful error: %v", ov)
	}
}

// TestBuildScriptWithoutScratchReportsCycle: the pure rotation and the swap
// of two full targets deadlock, and without scratch the cycle is named.
func TestBuildScriptWithoutScratchReportsCycle(t *testing.T) {
	from, plan, sizes, caps := rotation(t)
	_, err := BuildScript(from, plan, sizes, caps, ScratchSpec{})
	var cyc *CycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("BuildScript = %v, want *CycleError", err)
	}
	if len(cyc.Moves) != 3 || len(cyc.Objects) != 3 || len(cyc.Targets) != 3 {
		t.Fatalf("cycle %+v, want all 3 moves", cyc)
	}

	from, plan, sizes = swap(t)
	if _, err := BuildScript(from, plan, sizes, []int64{100, 100}, ScratchSpec{}); !errors.As(err, &cyc) || len(cyc.Moves) != 2 {
		t.Fatalf("BuildScript on the full swap = %v, want a 2-move *CycleError", err)
	}
}

// TestBuildScriptValidatesReferences: moves naming objects or targets the
// layout lacks, self-moves, negative sizes and mismatched slices are
// refused before anything is scheduled.
func TestBuildScriptValidatesReferences(t *testing.T) {
	from := layout.New(2, 2)
	from.Set(0, 0, 1)
	from.Set(1, 1, 1)
	sizes := []int64{10, 10}
	caps := []int64{100, 100}
	for _, c := range []struct {
		name string
		plan []layout.Move
		caps []int64
	}{
		{"out-of-range object", []layout.Move{{Object: 5, From: 0, To: 1, Fraction: 1, Bytes: 10}}, caps},
		{"out-of-range target", []layout.Move{{Object: 0, From: 0, To: 2, Fraction: 1, Bytes: 10}}, caps},
		{"self-move", []layout.Move{{Object: 0, From: 1, To: 1, Fraction: 1, Bytes: 10}}, caps},
		{"negative bytes", []layout.Move{{Object: 0, From: 0, To: 1, Fraction: 1, Bytes: -1}}, caps},
		{"capacity count", nil, caps[:1]},
	} {
		if _, err := BuildScript(from, c.plan, sizes, c.caps, ScratchSpec{}); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestBuildScriptStagesCycle(t *testing.T) {
	from, plan, sizes, caps := rotation(t)
	steps, err := BuildScript(from, plan, sizes, caps, ScratchSpec{Target: 3, Bytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(plan)+1 {
		t.Fatalf("staged script has %d steps, want %d (one staged pair)", len(steps), len(plan)+1)
	}
	ins, outs := 0, 0
	var inIdx, outIdx, inPos, outPos int
	for i, s := range steps {
		switch s.Kind {
		case StepStageIn:
			ins++
			inIdx, inPos = s.MoveIndex, i
			if s.Move.To != 3 {
				t.Fatalf("stage-in targets %d, want scratch target 3", s.Move.To)
			}
		case StepStageOut:
			outs++
			outIdx, outPos = s.MoveIndex, i
			if s.Move.From != 3 {
				t.Fatalf("stage-out reads from %d, want scratch target 3", s.Move.From)
			}
		}
	}
	if ins != 1 || outs != 1 || inIdx != outIdx || inPos >= outPos {
		t.Fatalf("staging malformed: %d ins (move %d at %d), %d outs (move %d at %d)",
			ins, inIdx, inPos, outs, outIdx, outPos)
	}
	checkScriptSafe(t, from, steps, sizes, caps)
}

func TestBuildScriptScratchExhausted(t *testing.T) {
	from, plan, sizes, caps := rotation(t)
	_, err := BuildScript(from, plan, sizes, caps, ScratchSpec{Target: 3, Bytes: 60})
	if !errors.Is(err, ErrScratchExhausted) {
		t.Fatalf("BuildScript = %v, want ErrScratchExhausted", err)
	}
	var se *ScratchError
	if !errors.As(err, &se) || se.NeedBytes != 100 || se.FreeBytes != 60 {
		t.Fatalf("shortfall detail wrong: %+v", se)
	}
	if se.Cycle == nil {
		t.Fatal("scratch error lost the cycle diagnosis")
	}
}

func TestBuildScriptScratchMustFit(t *testing.T) {
	from, plan, sizes, caps := rotation(t)
	// Target 3 has 250 capacity and is empty; a 300-byte reservation
	// cannot be honoured.
	if _, err := BuildScript(from, plan, sizes, caps, ScratchSpec{Target: 3, Bytes: 300}); err == nil {
		t.Fatal("oversized scratch reservation accepted")
	}
	if _, err := BuildScript(from, plan, sizes, caps, ScratchSpec{Target: 9, Bytes: 10}); err == nil {
		t.Fatal("out-of-range scratch target accepted")
	}
	// The reservation is checked only when a cycle needs it.
	caps[0] = 200
	if _, err := BuildScript(from, plan, sizes, caps, ScratchSpec{Target: 9, Bytes: 10}); err != nil {
		t.Fatalf("orderable plan refused over an unused scratch spec: %v", err)
	}
}

func TestAutoScratch(t *testing.T) {
	from, plan, sizes, caps := rotation(t)
	to := layout.New(3, 4)
	for i := 0; i < 3; i++ {
		to.Set(i, (i+1)%3, 1)
	}
	spec := AutoScratch(from, to, sizes, caps)
	if spec.Target != 3 {
		t.Fatalf("AutoScratch picked target %d, want the empty target 3", spec.Target)
	}
	if spec.Bytes != 125 {
		t.Fatalf("AutoScratch reserved %d bytes, want half the 250-byte headroom", spec.Bytes)
	}
	steps, err := BuildScript(from, plan, sizes, caps, spec)
	if err != nil {
		t.Fatalf("BuildScript with auto scratch: %v", err)
	}
	checkScriptSafe(t, from, steps, sizes, caps)

	// No headroom anywhere: AutoScratch must admit defeat.
	if spec := AutoScratch(from, to, sizes, caps[:3]); spec.Bytes != 0 {
		t.Fatalf("AutoScratch invented scratch space: %+v", spec)
	}
}

// TestAutoScratchSkipsFailedTargets: a failed target is never the scratch
// target, however much room it has; failed indices outside the target range
// change nothing.
func TestAutoScratchSkipsFailedTargets(t *testing.T) {
	from, _, sizes, caps := rotation(t)
	to := layout.New(3, 4)
	for i := 0; i < 3; i++ {
		to.Set(i, (i+1)%3, 1)
	}
	caps[0] = 180 // 80 bytes of headroom under both layouts
	all := AutoScratch(from, to, sizes, caps)
	if all != (ScratchSpec{Target: 3, Bytes: 125}) {
		t.Fatalf("AutoScratch = %+v, want the roomiest target 3 with 125 bytes", all)
	}
	if got := AutoScratch(from, to, sizes, caps, 3); got != (ScratchSpec{Target: 0, Bytes: 40}) {
		t.Fatalf("AutoScratch with target 3 failed = %+v, want target 0 with 40 bytes", got)
	}
	if got := AutoScratch(from, to, sizes, caps, -1, 4, 99); got != all {
		t.Fatalf("out-of-range failed targets changed the pick: %+v, want %+v", got, all)
	}
	if got := AutoScratch(from, to, sizes, caps, 0, 3); got.Bytes != 0 {
		t.Fatalf("AutoScratch reserved %+v with every roomy target failed", got)
	}
}

// FuzzBuildScript checks BuildScript against the reference scheduler below
// on small random migrations (see decodeScriptCase): both must return the
// same steps, bit for bit and with the same MoveIndex, or errors of the same
// type and message.
func FuzzBuildScript(f *testing.F) {
	rot := func(slack3 int8) scriptCase {
		c := scriptCase{n: 3, m: 4, sizes: []byte{100, 100, 100}, slack: []int8{0, 0, 0, slack3}}
		for i := 0; i < 3; i++ {
			c.from = append(c.from, unitRow(4, i))
			c.to = append(c.to, unitRow(4, (i+1)%3))
		}
		return c
	}
	for _, spec := range []struct{ target, bytes byte }{{0, 0}, {4, 58}, {4, 38}, {4, 70}, {4, 150}, {5, 13}} {
		for _, slack3 := range []int8{125, 20, 0} {
			c := rot(slack3)
			c.scratchTarget, c.scratchBytes = spec.target, spec.bytes
			f.Add(c.encode())
		}
	}
	roomy := rot(125)
	roomy.slack[0] = 50
	f.Add(roomy.encode())
	for corrupt := byte(1); corrupt <= 5; corrupt++ {
		c := rot(125)
		c.corrupt = corrupt
		f.Add(c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		from, to, sizes, caps, spec, corrupt := decodeScriptCase(data)
		plan, err := layout.MigrationPlan(from, to, sizes)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case corrupt == 4:
			sizes = sizes[:len(sizes)-1]
		case len(plan) == 0:
		case corrupt == 1:
			plan[0].Object = from.N
		case corrupt == 2:
			plan[0].To = plan[0].From
		case corrupt == 3:
			plan[0].Bytes = -1
		case corrupt == 5:
			plan[0].From = from.M
		}
		want, werr := refBuildScript(from, plan, sizes, caps, spec)
		got, gerr := BuildScript(from, plan, sizes, caps, spec)
		if werr != nil || gerr != nil {
			if reflect.TypeOf(gerr) != reflect.TypeOf(werr) || fmt.Sprint(gerr) != fmt.Sprint(werr) ||
				!reflect.DeepEqual(gerr, werr) {
				t.Fatalf("BuildScript error %T %v, reference %T %v", gerr, gerr, werr, werr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%d steps, reference %d", len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Kind != w.Kind || g.MoveIndex != w.MoveIndex || g.Move.Object != w.Move.Object ||
				g.Move.From != w.Move.From || g.Move.To != w.Move.To || g.Move.Bytes != w.Move.Bytes ||
				math.Float64bits(g.Move.Fraction) != math.Float64bits(w.Move.Fraction) {
				t.Fatalf("step %d is %+v, reference %+v", i, g, w)
			}
		}
	})
}

// scriptCase is a fuzz input before encoding: n objects on m targets, each
// row given by per-target weights, each capacity by its slack over the
// larger of the target's two endpoint occupancies.
type scriptCase struct {
	n, m                        byte
	scratchTarget, scratchBytes byte
	corrupt                     byte
	sizes                       []byte
	from, to                    [][]byte
	slack                       []int8
}

func unitRow(m, j int) []byte {
	row := make([]byte, m)
	row[j] = 1
	return row
}

func (c scriptCase) encode() []byte {
	b := []byte{c.n - 1, c.m - 1, c.scratchTarget, c.scratchBytes, c.corrupt}
	for i := 0; i < int(c.n); i++ {
		b = append(b, c.sizes[i])
		b = append(b, c.from[i]...)
		b = append(b, c.to[i]...)
	}
	for _, s := range c.slack {
		b = append(b, byte(s))
	}
	return b
}

// decodeScriptCase reads a migration from fuzz bytes, padding with zeros:
// 1-6 objects of 0-255 bytes (small sizes give 0-byte moves) on 1-4
// targets; rows of weights 0-3 normalized to sum 1 (an all-zero row puts the
// object on one target); capacities from 256 bytes short of the larger
// endpoint occupancy to 254 bytes over it; a scratch spec whose target runs
// from -1 to m and whose bytes from -16 to 494, so it may be absent,
// undersized, oversized or out of range; and a corruption mode for the plan.
func decodeScriptCase(data []byte) (from, to *layout.Layout, sizes, caps []int64, spec ScratchSpec, corrupt byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n, m := 1+int(next())%6, 1+int(next())%4
	spec = ScratchSpec{Target: int(next())%(m+2) - 1, Bytes: 2*int64(next()) - 16}
	corrupt = next() % 8
	row := func(l *layout.Layout, i int) {
		w := make([]float64, m)
		var sum float64
		for j := range w {
			w[j] = float64(next() % 4)
			sum += w[j]
		}
		if sum == 0 {
			w[i%m], sum = 1, 1
		}
		for j := range w {
			l.Set(i, j, w[j]/sum)
		}
	}
	from, to = layout.New(n, m), layout.New(n, m)
	sizes = make([]int64, n)
	for i := 0; i < n; i++ {
		sizes[i] = int64(next())
		row(from, i)
		row(to, i)
	}
	caps = make([]int64, m)
	for j := range caps {
		occ := math.Max(from.TargetBytes(j, sizes), to.TargetBytes(j, sizes))
		caps[j] = int64(math.Ceil(occ)) + 2*int64(int8(next()))
	}
	return from, to, sizes, caps, spec, corrupt
}

// The reference scheduler: the plan orderer and script builder as they were
// when ordering a plan and staging its cycles were two separate passes. It
// returns this package's error types so errors compare directly.

const refByteSlack = 0.5

func refCheckPlanRefs(from *layout.Layout, plan []layout.Move, sizes, capacities []int64) error {
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

func refOccupancies(l *layout.Layout, sizes []int64) []float64 {
	occ := make([]float64, l.M)
	for j := 0; j < l.M; j++ {
		occ[j] = l.TargetBytes(j, sizes)
	}
	return occ
}

func refOrderPlan(from *layout.Layout, plan []layout.Move, sizes, capacities []int64) ([]layout.Move, error) {
	if err := refCheckPlanRefs(from, plan, sizes, capacities); err != nil {
		return nil, err
	}
	occ := refOccupancies(from, sizes)
	pending := make([]int, len(plan))
	for i := range pending {
		pending[i] = i
	}
	out := make([]layout.Move, 0, len(plan))
	for len(pending) > 0 {
		picked := -1
		for pi, idx := range pending {
			m := plan[idx]
			if float64(m.Bytes) <= float64(capacities[m.To])-occ[m.To]+refByteSlack {
				picked = pi
				break
			}
		}
		if picked < 0 {
			if cyc := refFindPlanCycle(plan, pending); cyc != nil {
				return nil, cyc
			}
			m := plan[pending[0]]
			return nil, &PlanOverflowError{
				Step: pending[0], Move: m, NeedBytes: m.Bytes,
				FreeBytes: int64(float64(capacities[m.To]) - occ[m.To]),
			}
		}
		m := plan[pending[picked]]
		occ[m.To] += float64(m.Bytes)
		occ[m.From] -= float64(m.Bytes)
		out = append(out, m)
		pending = append(pending[:picked], pending[picked+1:]...)
	}
	return out, nil
}

func refFindPlanCycle(plan []layout.Move, pending []int) *CycleError {
	byFrom := map[int][]int{}
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

func refBuildScript(from *layout.Layout, plan []layout.Move, sizes, capacities []int64, scratch ScratchSpec) ([]Step, error) {
	ordered, err := refOrderPlan(from, plan, sizes, capacities)
	if err == nil {
		steps := make([]Step, len(ordered))
		at := refIndexPlan(plan)
		for i, m := range ordered {
			steps[i] = Step{Kind: StepDirect, Move: m, MoveIndex: at[m]}
		}
		return steps, nil
	}
	var cyc *CycleError
	if !refAsCycle(err, &cyc) {
		return nil, err
	}
	if scratch.Bytes <= 0 {
		return nil, cyc
	}
	return refStageScript(from, plan, sizes, capacities, scratch)
}

func refIndexPlan(plan []layout.Move) map[layout.Move]int {
	at := make(map[layout.Move]int, len(plan))
	for i := len(plan) - 1; i >= 0; i-- {
		at[plan[i]] = i
	}
	return at
}

func refAsCycle(err error, out **CycleError) bool {
	c, ok := err.(*CycleError)
	if ok {
		*out = c
	}
	return ok
}

func refStageScript(from *layout.Layout, plan []layout.Move, sizes, capacities []int64, scratch ScratchSpec) ([]Step, error) {
	if scratch.Target < 0 || scratch.Target >= from.M {
		return nil, fmt.Errorf("migrate: scratch target %d outside [0,%d)", scratch.Target, from.M)
	}
	occ := make([]float64, from.M)
	for j := 0; j < from.M; j++ {
		occ[j] = from.TargetBytes(j, sizes)
	}
	scratchFree := scratch.Bytes
	if occ[scratch.Target]+float64(scratch.Bytes) > float64(capacities[scratch.Target])+refByteSlack {
		return nil, fmt.Errorf("migrate: scratch reservation of %d bytes does not fit on target %d (%d of %d bytes used)",
			scratch.Bytes, scratch.Target, int64(occ[scratch.Target]), capacities[scratch.Target])
	}
	free := func(j int) float64 {
		f := float64(capacities[j]) - occ[j]
		if j == scratch.Target {
			f -= float64(scratchFree)
		}
		return f
	}

	pending := make([]int, len(plan))
	for i := range pending {
		pending[i] = i
	}
	var parked []int
	var script []Step
	for len(pending)+len(parked) > 0 {
		staged := -1
		for pi, idx := range parked {
			if float64(plan[idx].Bytes) <= free(plan[idx].To)+refByteSlack {
				staged = pi
				break
			}
		}
		if staged >= 0 {
			idx := parked[staged]
			m := plan[idx]
			script = append(script, Step{
				Kind:      StepStageOut,
				Move:      layout.Move{Object: m.Object, From: scratch.Target, To: m.To, Fraction: m.Fraction, Bytes: m.Bytes},
				MoveIndex: idx,
			})
			occ[m.To] += float64(m.Bytes)
			occ[scratch.Target] -= float64(m.Bytes)
			scratchFree += m.Bytes
			parked = append(parked[:staged], parked[staged+1:]...)
			continue
		}
		direct := -1
		for pi, idx := range pending {
			if float64(plan[idx].Bytes) <= free(plan[idx].To)+refByteSlack {
				direct = pi
				break
			}
		}
		if direct >= 0 {
			idx := pending[direct]
			m := plan[idx]
			script = append(script, Step{Kind: StepDirect, Move: m, MoveIndex: idx})
			occ[m.To] += float64(m.Bytes)
			occ[m.From] -= float64(m.Bytes)
			pending = append(pending[:direct], pending[direct+1:]...)
			continue
		}
		cyc := refFindPlanCycle(plan, pending)
		stage, need := -1, int64(0)
		for pi, idx := range pending {
			b := plan[idx].Bytes
			if need == 0 || b < need {
				need = b
			}
			if b <= scratchFree && (stage < 0 || b < plan[pending[stage]].Bytes) {
				stage = pi
			}
		}
		if stage < 0 {
			if cyc == nil && len(pending) > 0 {
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
