package layout

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dblayout/internal/costmodel"
	"dblayout/internal/rome"
)

// utilTol is the agreement contract between the incremental kernel and the
// naive evaluator (see DESIGN.md, "Evaluation-kernel tolerance contract").
const utilTol = 1e-9

func utilClose(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	if b > scale {
		scale = b
	}
	return d <= utilTol*scale
}

// randInstance builds a random valid instance: n objects with random rates,
// sizes, run counts, concurrency and a random symmetric overlap matrix with
// ~1/3 zero pairs, all in the dense representation, on m targets alternating
// between the disk-like and SSD-like test models.
func randInstance(tb testing.TB, rng *rand.Rand, n, m int) *Instance {
	return randInstanceWith(tb, rng, n, m, 1.0/3, false)
}

// randInstanceWith generalizes randInstance: each overlap pair is zeroed
// with probability drop (the sparsity level), and with mixRep set each
// workload's vector is stored in a randomly chosen representation — dense
// or rome.SparseOverlap carrying the exact same values — so differential
// drives cover representation mixing at every sparsity level.
func randInstanceWith(tb testing.TB, rng *rand.Rand, n, m int, drop float64, mixRep bool) *Instance {
	ws := make([]*rome.Workload, n)
	for i := range ws {
		w := &rome.Workload{
			Name:      fmt.Sprintf("O%d", i),
			ReadSize:  8192 * float64(1+rng.Intn(16)),
			WriteSize: 8192,
			ReadRate:  rng.Float64() * 300,
			WriteRate: rng.Float64() * 50,
			RunCount:  1 + rng.Float64()*63,
			Overlap:   make([]float64, n),
		}
		if rng.Intn(4) == 0 {
			w.Concurrency = 1 + rng.Float64()*4
		}
		if rng.Intn(8) == 0 {
			// Idle object: exercises the totalRate == 0 paths.
			w.ReadRate, w.WriteRate = 0, 0
		}
		w.Overlap[i] = 1
		ws[i] = w
	}
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			ov := rng.Float64()
			if rng.Float64() < drop {
				ov = 0
			}
			ws[i].Overlap[k] = ov
			ws[k].Overlap[i] = ov
		}
	}
	if mixRep {
		for i, w := range ws {
			if rng.Intn(2) == 0 {
				continue
			}
			var sp []rome.OverlapEntry
			for k, v := range w.Overlap {
				if k != i && v != 0 {
					sp = append(sp, rome.OverlapEntry{Index: k, Value: v})
				}
			}
			w.Overlap = nil
			w.SparseOverlap = sp
		}
	}
	set, err := rome.NewSet(ws...)
	if err != nil {
		tb.Fatal(err)
	}

	disk, ssd := testModel(), ssdTestModel()
	targets := make([]*Target, m)
	for j := range targets {
		model := CostModel(disk)
		if j%2 == 1 {
			model = ssd
		}
		targets[j] = &Target{Name: fmt.Sprintf("t%d", j), Capacity: 1 << 40, Model: model}
	}
	objects := make([]Object, n)
	for i := range objects {
		objects[i] = Object{Name: ws[i].Name, Size: int64(1+rng.Intn(8)) << 28}
	}
	inst := &Instance{Objects: objects, Targets: targets, Workloads: set}
	if err := inst.Validate(); err != nil {
		tb.Fatal(err)
	}
	return inst
}

// costOnly hides a model's concrete type, so the kernel prices it through
// Cost instead of cached table cells.
type costOnly struct{ CostModel }

// indexed returns a copy of m with its log axes filled, as a calibrated or
// loaded model has them: a Save/Load round trip.
func indexed(tb testing.TB, m *costmodel.Model) *costmodel.Model {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	out, err := costmodel.Load(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// withModels returns inst on copies of its targets whose table models are
// re-represented by two bits of models per target (target j reads bits
// 2*(j%4) and 2*(j%4)+1): bit 0 selects an indexed table over the literal
// one, bit 1 hides the model behind costOnly. models = 0 keeps every literal
// table and 0b10101010 hides every model; every representation prices the
// same costs.
func withModels(tb testing.TB, inst *Instance, models uint8) *Instance {
	c := *inst
	c.Targets = make([]*Target, len(inst.Targets))
	for j, t := range inst.Targets {
		w := *t
		rep := models >> (2 * (j % 4)) & 3
		if rep&1 != 0 {
			w.Model = indexed(tb, w.Model.(*costmodel.Model))
		}
		if rep&2 != 0 {
			w.Model = costOnly{w.Model}
		}
		c.Targets[j] = &w
	}
	return &c
}

// checkBits requires two kernels' cached utilizations to be bit-identical.
func checkBits(tb testing.TB, q, twin *IncrementalEvaluator, step int) {
	tb.Helper()
	for j := range q.mu {
		if a, b := q.Utilization(j), twin.Utilization(j); math.Float64bits(a) != math.Float64bits(b) {
			tb.Fatalf("step %d: target %d: kernel mu = %.17g, Cost-only twin mu = %.17g", step, j, a, b)
		}
	}
}

// refScore is the reference for the kernel's probe: mu_j as if L[obj][j]
// were frac, with every active entry other than obj priced afresh from its
// cached contention sum (shifted by obj's change where obj is a co-access
// partner) and cells, and obj priced from fresh cells. scoreWith adds the
// cached terms of the entries the probe leaves alone instead, and must give
// these bits exactly.
func refScore(q *IncrementalEvaluator, j, obj int, frac float64) float64 {
	ev := q.ev
	var lamObj, dLam float64
	objPos := -1
	var oIdx []int32
	var oTval []float64
	if obj >= 0 {
		lamObj = ev.totalRate[obj] * frac
		p := q.findActive(j, obj)
		var lamOld float64
		if p >= 0 {
			lamOld = q.lam[j][p]
			objPos = p
		}
		dLam = lamObj - lamOld
		oIdx, _, oTval = q.ov.row(obj)
	}
	var mu float64
	e := 0
	for t, i32 := range q.act[j] {
		for e < len(oIdx) && oIdx[e] < i32 {
			e++
		}
		i := int(i32)
		if i == obj {
			continue
		}
		lij := q.l.At(i, j)
		if lij <= Epsilon || ev.totalRate[i] <= 0 {
			continue
		}
		s := q.con[j][t]
		if dLam != 0 && e < len(oIdx) && oIdx[e] == i32 {
			s += dLam * oTval[e]
		}
		chi := s/q.lam[j][t] + ev.selfChi[i]
		mu += q.objTerm(j, i, lij, chi, &q.cel[j][t])
	}
	if obj >= 0 && frac > Epsilon && ev.totalRate[obj] > 0 {
		var s float64
		if objPos >= 0 {
			s = q.con[j][objPos]
		} else {
			s = q.freshCon(j, obj)
		}
		chi := s/lamObj + ev.selfChi[obj]
		c := ev.cells(j, obj, frac)
		mu += q.objTerm(j, obj, frac, chi, &c)
	}
	return mu
}

// checkProbe requires a kernel probe to carry refScore's bits.
func checkProbe(tb testing.TB, q *IncrementalEvaluator, j, obj int, frac, got float64, step int) {
	tb.Helper()
	if want := refScore(q, j, obj, frac); math.Float64bits(got) != math.Float64bits(want) {
		tb.Fatalf("step %d: probe of target %d with L[%d][%d] = %g: %.17g, reference %.17g", step, j, obj, j, frac, got, want)
	}
}

// checkTerms requires every cached term to equal a fresh pricing of its
// entry: from its cached lambda and contention sum, at its current fraction,
// with cells prepared afresh. A term a mutation forgot to refresh fails
// here even when no probe has read it yet.
func checkTerms(tb testing.TB, q *IncrementalEvaluator, step int) {
	tb.Helper()
	for j := range q.act {
		if len(q.ter[j]) != len(q.act[j]) {
			tb.Fatalf("step %d: target %d: %d terms for %d active entries", step, j, len(q.ter[j]), len(q.act[j]))
		}
		for t, i32 := range q.act[j] {
			i := int(i32)
			var want float64
			if lij := q.l.At(i, j); lij > Epsilon && q.ev.totalRate[i] > 0 {
				chi := q.con[j][t]/q.lam[j][t] + q.ev.selfChi[i]
				c := q.ev.cells(j, i, lij)
				want = q.objTerm(j, i, lij, chi, &c)
			}
			if got := q.ter[j][t]; math.Float64bits(got) != math.Float64bits(want) {
				tb.Fatalf("step %d: target %d, object %d: cached term %.17g, fresh pricing %.17g", step, j, i, got, want)
			}
		}
	}
}

// randLayout builds a random valid layout: each row spreads over 1..m random
// targets with normalized random weights.
func randLayout(rng *rand.Rand, n, m int) *Layout {
	l := New(n, m)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(m)
		perm := rng.Perm(m)[:k]
		row := make([]float64, m)
		var sum float64
		for _, j := range perm {
			row[j] = 0.1 + rng.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		l.SetRow(i, row)
	}
	return l
}

// randMove picks a random candidate transfer for the differential drive,
// including dust-clamp (delta just shy of the whole assignment) and
// whole-assignment moves.
func randMove(rng *rand.Rand, l *Layout) (obj, from, to int, delta float64, ok bool) {
	obj = rng.Intn(l.N)
	froms := l.Targets(obj)
	if len(froms) == 0 {
		return 0, 0, 0, 0, false
	}
	from = froms[rng.Intn(len(froms))]
	to = rng.Intn(l.M)
	if to == from {
		to = (to + 1) % l.M
	}
	have := l.At(obj, from)
	if have <= Epsilon {
		return 0, 0, 0, 0, false
	}
	switch rng.Intn(5) {
	case 0:
		delta = have // whole assignment
	case 1:
		delta = have * (1 - 5e-10) // sub-Epsilon residual: dust clamp folds it
	case 2:
		delta = have * 0.5
	case 3:
		delta = have * 0.125
	default:
		delta = have * rng.Float64()
	}
	if delta <= Epsilon {
		return 0, 0, 0, 0, false
	}
	return obj, from, to, delta, true
}

// checkAgainstNaive compares every cached kernel utilization against a fresh
// naive evaluation of the kernel's layout.
func checkAgainstNaive(tb testing.TB, q *IncrementalEvaluator, ev *Evaluator, step int) {
	tb.Helper()
	want := ev.Utilizations(q.Layout())
	got := q.Utilizations(nil)
	for j := range want {
		if !utilClose(got[j], want[j]) {
			tb.Fatalf("step %d: target %d: incremental mu = %.17g, naive mu = %.17g (diff %g)",
				step, j, got[j], want[j], got[j]-want[j])
		}
	}
}

// driveDifferential runs `moves` random transfers through the kernel,
// checking every TryMove probe bit for bit against refScore and within the
// tolerance contract against a naive mutate-evaluate pass on a clone, every
// cached term after each mutation against a fresh pricing, and periodically
// the full cached state against a fresh naive evaluation. drop sets the
// overlap sparsity (fraction of zero pairs); pass -1 for the legacy dense
// 1/3-zero generator, any other value also mixes dense and sparse overlap
// representations across workloads.
// models mixes literal tables, indexed tables and Cost-only wrappers across
// the targets (see withModels). A twin kernel that prices every target
// through Cost takes the same moves, and every probe and cached utilization
// of the two must be bit-identical.
func driveDifferential(tb testing.TB, seed int64, n, m, moves int, drop float64, models uint8) {
	rng := rand.New(rand.NewSource(seed))
	var inst *Instance
	if drop < 0 {
		inst = randInstance(tb, rng, n, m)
	} else {
		inst = randInstanceWith(tb, rng, n, m, drop, true)
	}
	inst = withModels(tb, inst, models)
	ev := NewEvaluator(inst)
	l := randLayout(rng, n, m)
	q := ev.NewIncremental(l)
	twin := NewEvaluator(withModels(tb, inst, 0b10101010)).NewIncremental(l.Clone())
	checkAgainstNaive(tb, q, ev, -1)
	checkBits(tb, q, twin, -1)
	checkTerms(tb, q, -1)
	for j := 0; j < m; j++ {
		checkProbe(tb, q, j, -1, 0, q.Utilization(j), -1)
	}

	applied := 0
	for step := 0; step < moves; step++ {
		obj, from, to, delta, ok := randMove(rng, l)
		if !ok {
			continue
		}
		muF, muT := q.TryMove(obj, from, to, delta)
		if tF, tT := twin.TryMove(obj, from, to, delta); math.Float64bits(muF) != math.Float64bits(tF) ||
			math.Float64bits(muT) != math.Float64bits(tT) {
			tb.Fatalf("step %d: TryMove (%.17g, %.17g), Cost-only twin (%.17g, %.17g)", step, muF, muT, tF, tT)
		}
		eff := q.EffectiveDelta(obj, from, delta)
		have := l.At(obj, from)
		checkProbe(tb, q, from, obj, have-eff, muF, step)
		checkProbe(tb, q, to, obj, l.At(obj, to)+eff, muT, step)

		// Naive reference: apply the effective move to a clone, evaluate.
		c := l.Clone()
		newFrom := have - eff
		if eff == have {
			newFrom = 0
		}
		c.Set(obj, from, newFrom)
		c.Set(obj, to, c.At(obj, to)+eff)
		if wantF := ev.TargetUtilization(c, from); !utilClose(muF, wantF) {
			tb.Fatalf("step %d: TryMove muFrom = %.17g, naive = %.17g", step, muF, wantF)
		}
		if wantT := ev.TargetUtilization(c, to); !utilClose(muT, wantT) {
			tb.Fatalf("step %d: TryMove muTo = %.17g, naive = %.17g", step, muT, wantT)
		}

		if rng.Intn(3) > 0 {
			if got := q.Apply(obj, from, to, delta); got != eff {
				tb.Fatalf("step %d: Apply returned %g, EffectiveDelta %g", step, got, eff)
			}
			twin.Apply(obj, from, to, delta)
			checkBits(tb, q, twin, step)
			checkTerms(tb, q, step)
			checkTerms(tb, twin, step)
			applied++
			// Apply's cached state must reproduce TryMove's probes exactly:
			// both go through the same scoring primitive.
			if q.Utilization(from) != muF || q.Utilization(to) != muT {
				tb.Fatalf("step %d: Apply utilizations (%.17g, %.17g) differ from TryMove probes (%.17g, %.17g)",
					step, q.Utilization(from), q.Utilization(to), muF, muT)
			}
			if eff == have && l.At(obj, from) != 0 {
				tb.Fatalf("step %d: whole-assignment move left %g on source", step, l.At(obj, from))
			}
		}
		if step%25 == 0 {
			checkAgainstNaive(tb, q, ev, step)
		}
	}
	checkAgainstNaive(tb, q, ev, moves)
	if err := l.CheckIntegrity(); err != nil {
		tb.Fatalf("after %d applied moves: %v", applied, err)
	}
}

// TestIncrementalMatchesNaive is the differential property test of the
// kernel's move path: random instances, random valid layouts, random move
// sequences, with every probe and every cached utilization compared against
// the naive evaluator within the 1e-9 contract, and against a Cost-only twin
// bit for bit.
func TestIncrementalMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 977))
			n := 4 + rng.Intn(9)
			m := 2 + rng.Intn(5)
			driveDifferential(t, seed, n, m, 200, -1, uint8(rng.Intn(256)))
		})
	}
}

// TestIncrementalMatchesNaiveSparse runs the same differential property over
// the sparse overlap representation at several sparsity levels, with dense
// and sparse vectors mixed within one set.
func TestIncrementalMatchesNaiveSparse(t *testing.T) {
	for _, drop := range []float64{0, 0.5, 0.9, 1} {
		drop := drop
		t.Run(fmt.Sprintf("drop=%g", drop), func(t *testing.T) {
			driveDifferential(t, int64(1000*drop)+13, 12, 5, 200, drop, 0b11100100)
		})
	}
}

// TestIncrementalRowReplacement checks the regularizer's pattern: probing
// single cells of a candidate row with ScoreObjectFrac, then committing it
// with SetObjectRow, must match naive evaluation of the replaced row.
func TestIncrementalRowReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inst := randInstance(t, rng, 10, 5)
	ev := NewEvaluator(inst)
	l := randLayout(rng, 10, 5)
	q := ev.NewIncremental(l)

	for step := 0; step < 120; step++ {
		i := rng.Intn(l.N)
		row := randLayout(rng, 1, l.M).Row(0)
		if rng.Intn(4) == 0 {
			// Regular row concentrated on one target: exercises activation
			// and deactivation of the remaining cells.
			for j := range row {
				row[j] = 0
			}
			row[rng.Intn(l.M)] = 1
		}
		c := l.Clone()
		c.SetRow(i, row)
		probes := make([]float64, l.M)
		for j := range row {
			probes[j] = q.ScoreObjectFrac(j, i, row[j])
			checkProbe(t, q, j, i, row[j], probes[j], step)
			if want := ev.TargetUtilization(c, j); !utilClose(probes[j], want) {
				t.Fatalf("step %d: ScoreObjectFrac(%d, %d, %g) = %.17g, naive = %.17g",
					step, j, i, row[j], probes[j], want)
			}
		}
		q.SetObjectRow(i, row)
		for j := range row {
			if row[j] != c.At(i, j) {
				continue
			}
			if q.Utilization(j) != probes[j] && row[j] != l.At(i, j) {
				t.Fatalf("step %d: SetObjectRow utilization %.17g differs from probe %.17g",
					step, q.Utilization(j), probes[j])
			}
		}
		checkTerms(t, q, step)
		checkAgainstNaive(t, q, ev, step)
	}
}

// TestIncrementalLongSequenceDrift pins the accumulated floating-point drift
// of the incrementally-maintained contention sums: after thousands of applied
// moves the kernel must still agree with a fresh naive evaluation within the
// 1e-9 contract, with no periodic rebuild.
func TestIncrementalLongSequenceDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("long drift check skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	inst := randInstance(t, rng, 20, 6)
	ev := NewEvaluator(inst)
	l := randLayout(rng, 20, 6)
	q := ev.NewIncremental(l)

	for step := 0; step < 4000; step++ {
		obj, from, to, delta, ok := randMove(rng, l)
		if !ok {
			continue
		}
		q.Apply(obj, from, to, delta)
		if step%500 == 0 {
			checkAgainstNaive(t, q, ev, step)
		}
	}
	checkTerms(t, q, 4000)
	checkAgainstNaive(t, q, ev, 4000)
	if err := l.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMoveScoringAllocFree pins the kernel's zero-allocation
// contract for the move-scoring loop: TryMove and Apply must not allocate
// once the kernel is built.
func TestIncrementalMoveScoringAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := randInstance(t, rng, 12, 4)
	ev := NewEvaluator(inst)
	l := randLayout(rng, 12, 4)
	q := ev.NewIncremental(l)

	from := 0
	for l.At(0, from) <= Epsilon {
		from++
	}
	to := (from + 1) % l.M
	if allocs := testing.AllocsPerRun(200, func() {
		q.TryMove(0, from, to, l.At(0, from)*0.25)
	}); allocs != 0 {
		t.Fatalf("TryMove allocates %g objects per call, want 0", allocs)
	}
	// Bounce the whole assignment between two targets: every Apply
	// activates one target and deactivates the other, the worst case for
	// the active-list bookkeeping.
	row := make([]float64, l.M)
	row[0] = 1
	q.SetObjectRow(1, row)
	side := 0
	if allocs := testing.AllocsPerRun(200, func() {
		q.Apply(1, side, 1-side, l.At(1, side))
		side = 1 - side
	}); allocs != 0 {
		t.Fatalf("Apply allocates %g objects per call, want 0", allocs)
	}
}

// TestIncrementalDegenerateMoves pins the guards and the no-op behaviour of
// the degenerate move shapes: from == to and negative deltas are caller bugs
// and panic on both TryMove and Apply; zero-delta moves are harmless —
// probes and applies leave the layout bit-identical, never activate the
// destination, and keep the cached contention state consistent with naive
// evaluation.
func TestIncrementalDegenerateMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := randInstance(t, rng, 8, 4)
	ev := NewEvaluator(inst)
	l := randLayout(rng, 8, 4)
	q := ev.NewIncremental(l)

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	// Force a known row so the destination below is guaranteed inactive.
	obj, from, to := 0, 0, 1
	row := make([]float64, l.M)
	row[from] = 1
	q.SetObjectRow(obj, row)
	mustPanic("TryMove from==to", func() { q.TryMove(obj, from, from, 0.5) })
	mustPanic("Apply from==to", func() { q.Apply(obj, from, from, 0.5) })
	mustPanic("TryMove negative delta", func() { q.TryMove(obj, from, to, -0.25) })
	mustPanic("Apply negative delta", func() { q.Apply(obj, from, to, -0.25) })

	// Zero-delta moves onto an inactive destination: a corrupt path would
	// show up as a spurious activation.
	beforeRow := append([]float64(nil), l.Row(obj)...)
	beforeActive := q.ActiveCount(to)
	muF, muT := q.TryMove(obj, from, to, 0)
	if eff := q.Apply(obj, from, to, 0); eff != 0 {
		t.Fatalf("zero-delta Apply moved %g", eff)
	}
	if q.Utilization(from) != muF || q.Utilization(to) != muT {
		t.Fatalf("zero-delta Apply utilizations (%.17g, %.17g) differ from TryMove probes (%.17g, %.17g)",
			q.Utilization(from), q.Utilization(to), muF, muT)
	}
	for j, v := range beforeRow {
		if l.At(obj, j) != v {
			t.Fatalf("zero-delta move changed L[%d][%d]: %g -> %g", obj, j, v, l.At(obj, j))
		}
	}
	if got := q.ActiveCount(to); got != beforeActive {
		t.Fatalf("zero-delta move activated the destination: %d -> %d active objects", beforeActive, got)
	}
	checkAgainstNaive(t, q, ev, 0)

	// A longer mix of zero-delta and real moves must not corrupt the cached
	// contention sums.
	for step := 0; step < 100; step++ {
		o, f, tt, delta, ok := randMove(rng, l)
		if !ok {
			continue
		}
		if step%3 == 0 {
			delta = 0
		}
		q.Apply(o, f, tt, delta)
	}
	checkTerms(t, q, 100)
	checkAgainstNaive(t, q, ev, 100)
	if err := l.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// blockSparseInstance builds an n-object instance whose overlap structure is
// block-diagonal with blocks of `span` co-accessed objects, stored in the
// sparse representation — the fleet shape: many databases, each internally
// correlated, mutually independent.
func blockSparseInstance(tb testing.TB, n, m, span int) *Instance {
	rng := rand.New(rand.NewSource(31))
	ws := make([]*rome.Workload, n)
	for i := range ws {
		ws[i] = &rome.Workload{
			Name:     fmt.Sprintf("O%d", i),
			ReadSize: 65536,
			ReadRate: 10 + rng.Float64()*200,
			RunCount: 1 + rng.Float64()*63,
		}
	}
	for b := 0; b < n; b += span {
		end := b + span
		if end > n {
			end = n
		}
		for i := b; i < end; i++ {
			for k := b; k < end; k++ {
				if k == i {
					continue
				}
				lo, hi := i, k
				if lo > hi {
					lo, hi = hi, lo
				}
				// Deterministic symmetric value per unordered pair.
				v := 0.2 + 0.7*float64((lo*31+hi*17)%100)/100
				ws[i].SparseOverlap = append(ws[i].SparseOverlap,
					rome.OverlapEntry{Index: k, Value: v})
			}
		}
	}
	set, err := rome.NewSet(ws...)
	if err != nil {
		tb.Fatal(err)
	}
	disk, ssd := testModel(), ssdTestModel()
	targets := make([]*Target, m)
	for j := range targets {
		model := CostModel(disk)
		if j%2 == 1 {
			model = ssd
		}
		targets[j] = &Target{Name: fmt.Sprintf("t%d", j), Capacity: 1 << 42, Model: model}
	}
	objects := make([]Object, n)
	for i := range objects {
		objects[i] = Object{Name: ws[i].Name, Size: 1 << 28}
	}
	inst := &Instance{Objects: objects, Targets: targets, Workloads: set}
	if err := inst.Validate(); err != nil {
		tb.Fatal(err)
	}
	return inst
}

// TestIncrementalFleetScaleConstruction is the regression test for the
// dense-construction bug: NewIncremental used to allocate four O(N) rows per
// target (O(M*N) memory however sparse the layout), and NewEvaluator a dense
// O(N^2) overlap matrix. At N=4096 x M=256 those were ~40 MB and ~130 MB;
// the sparse representations must stay proportional to non-zero co-access
// pairs and active layout entries — a couple of MB here — while still
// agreeing with naive evaluation.
func TestIncrementalFleetScaleConstruction(t *testing.T) {
	const n, m, span = 4096, 256, 8
	inst := blockSparseInstance(t, n, m, span)

	allocBytes := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var ev *Evaluator
	if got := allocBytes(func() { ev = NewEvaluator(inst) }); got > 8<<20 {
		t.Fatalf("NewEvaluator allocated %d bytes at N=%d; the dense matrix is back", got, n)
	}

	l := New(n, m)
	for i := 0; i < n; i++ {
		l.Set(i, i%m, 1)
	}
	var q *IncrementalEvaluator
	if got := allocBytes(func() { q = ev.NewIncremental(l) }); got > 8<<20 {
		t.Fatalf("NewIncremental allocated %d bytes for %d active entries; per-target state is dense again", got, n)
	}
	checkAgainstNaive(t, q, ev, 0)

	// Steady-state moves at fleet scale stay allocation-free.
	if allocs := testing.AllocsPerRun(100, func() {
		q.TryMove(0, 0, 1, l.At(0, 0)*0.5)
	}); allocs != 0 {
		t.Fatalf("fleet-scale TryMove allocates %g objects per call, want 0", allocs)
	}
}

// TestIncrementalDimensionMismatch checks the constructor's guard.
func TestIncrementalDimensionMismatch(t *testing.T) {
	inst := testInstance(t, 2)
	ev := NewEvaluator(inst)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched layout dimensions not rejected")
		}
	}()
	ev.NewIncremental(New(2, 2)) // instance has 4 objects
}

// FuzzIncrementalKernel fuzzes the differential property: whatever the
// instance shape, overlap sparsity level, representation mix (dense vectors
// vs rome.SparseOverlap), target model mix (literal tables, indexed tables,
// Cost-only wrappers), layout, and move sequence, the kernel must agree with
// the naive evaluator within the tolerance contract, give a Cost-only twin's
// bits exactly, and preserve layout integrity. sparsity = 255 selects the
// legacy dense-only generator; anything else maps to a zero-pair probability
// in [0, 1] with mixed representations.
func FuzzIncrementalKernel(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint16(60), uint8(255), uint8(0))
	f.Add(int64(2), uint8(2), uint8(2), uint16(10), uint8(0), uint8(0b0110))
	f.Add(int64(99), uint8(16), uint8(8), uint16(200), uint8(128), uint8(0b11100100))
	f.Add(int64(7), uint8(10), uint8(4), uint16(120), uint8(230), uint8(0b01010101))
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8, moves uint16, sparsity, models uint8) {
		nn := 2 + int(n%15)
		mm := 2 + int(m%7)
		steps := int(moves % 256)
		drop := -1.0
		if sparsity != 255 {
			drop = float64(sparsity) / 254
		}
		driveDifferential(t, seed, nn, mm, steps, drop, models)
	})
}
