package layout

import (
	"fmt"

	"dblayout/internal/costmodel"
)

// IncrementalEvaluator is a delta-evaluation kernel for the utilization model
// of Eq. 1/Eq. 2, bound to one live Layout. Where the naive Evaluator prices a
// candidate move with two full target evaluations, the kernel caches, per
// target j and per *active* object (non-zero assignment) on it:
//
//   - the request-rate entry lambda_ij = totalRate_i * L[i][j],
//   - the contention sum S_ij = sum_{k != i} lambda_kj * Overlap(i, k),
//   - the entry's cost-table cells (see entryCells),
//   - the entry's priced term mu_ij of Eq. 1,
//   - the current utilization mu_j,
//
// held in parallel slices ordered by ascending object id, so summation
// order is reproducible and lookup is a binary search. State is sized by
// active entries, not by N: construction walks the layout once and allocates
// O(total active entries), so an almost-empty fleet-scale target costs
// almost nothing (the dense predecessor allocated four O(N) rows per target
// and scanned every target twice regardless of occupancy). Scoring a
// candidate move is a merge-walk of the target's active list with the moved
// object's sparse overlap row — O(active + degree) with zero allocations.
// By Eq. 2 a move changes only the moved object's lambda, so only its
// co-access partners see their contention shift: a probe adds every other
// entry's cached term and re-prices just the partners (from their cached
// cells: four Curve.At calls per direction and no logarithm) and the moved
// object itself.
//
// The kernel agrees with the naive Evaluator to within 1e-9 on every target
// utilization (see DESIGN.md, "Evaluation-kernel tolerance contract"): exact
// agreement is impossible because the incremental contention sums accumulate
// in move order rather than object order, but the drift is bounded by a few
// ULPs per applied move and the differential property test in
// incremental_test.go pins the tolerance.
//
// An IncrementalEvaluator owns its Layout's mutations: callers must route all
// changes through Apply/SetObjectRow and must not modify the layout directly
// while the kernel is live. It is not safe for concurrent use.
type IncrementalEvaluator struct {
	ev *Evaluator
	l  *Layout
	n  int
	m  int

	// ov is the sparse overlap matrix, shared read-only with the parent
	// evaluator.
	ov *overlapCSR

	act [][]int32      // act[j]: objects with L[i][j] != 0, ascending
	lam [][]float64    // lam[j][t] = totalRate[act[j][t]] * L[act[j][t]][j]
	con [][]float64    // con[j][t] = S_ij for i = act[j][t]
	cel [][]entryCells // cel[j][t]: the cells of i = act[j][t] at L[i][j]
	ter [][]float64    // ter[j][t]: mu_ij for i = act[j][t] (see price)
	mu  []float64      // mu[j]: cached utilization of target j
}

// entryCells is the pricing state of object i holding fraction lij of target
// j that does not depend on contention: the run count Q_ij and, when target
// j's model is a calibrated table, the read and write cells at the object's
// request sizes and that run count. It changes only with lij. Other models
// are priced through Cost with the same run count.
type entryCells struct {
	run         float64
	read, write costmodel.Cell
}

// cells prepares the entry cells of object i holding fraction lij of target
// j. A direction the object never issues gets no cell.
func (ev *Evaluator) cells(j, i int, lij float64) entryCells {
	c := entryCells{run: ev.runCountOn(i, lij)}
	if t := ev.tables[j]; t != nil {
		if ev.readRate[i] > 0 {
			c.read = t.Read.Cell(ev.readSize[i], c.run)
		}
		if ev.writeRate[i] > 0 {
			c.write = t.Write.Cell(ev.writeSize[i], c.run)
		}
	}
	return c
}

// entryCost returns the guarded per-request cost of one direction of an
// entry at contention chi: from its cell on a table target, through Cost on
// any other. A table's Cost evaluates the same cell, so both give the bits
// Cost(write, size, c.run, chi) does.
func (ev *Evaluator) entryCost(j int, write bool, size, chi float64, c *entryCells) float64 {
	if ev.tables[j] == nil {
		return ev.cost(j, ev.inst.Targets[j].Model, write, size, c.run, chi)
	}
	cell := c.read
	if write {
		cell = c.write
	}
	return ev.guard(j, write, size, c.run, chi, cell.At(chi))
}

// NewIncremental binds a delta-evaluation kernel to l. Construction is one
// row-major pass over the layout plus one contention merge-walk per active
// entry — O(N*M) time to read the layout but memory proportional to the
// active entries only. The layout's dimensions must match the evaluator's
// instance; the kernel owns l's mutations from here on.
func (ev *Evaluator) NewIncremental(l *Layout) *IncrementalEvaluator {
	n, m := ev.inst.N(), ev.inst.M()
	if l.N != n || l.M != m {
		panic(fmt.Sprintf("layout: %dx%d layout for a %dx%d incremental evaluator", l.N, l.M, n, m))
	}
	q := &IncrementalEvaluator{
		ev:  ev,
		l:   l,
		n:   n,
		m:   m,
		ov:  ev.ov,
		act: make([][]int32, m),
		lam: make([][]float64, m),
		con: make([][]float64, m),
		cel: make([][]entryCells, m),
		ter: make([][]float64, m),
		mu:  make([]float64, m),
	}
	// One pass in row-major (layout storage) order: each target's active
	// list comes out ascending for free.
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if f := l.At(i, j); f != 0 {
				q.act[j] = append(q.act[j], int32(i))
				q.lam[j] = append(q.lam[j], ev.totalRate[i]*f)
				q.cel[j] = append(q.cel[j], ev.cells(j, i, f))
			}
		}
	}
	for j := 0; j < m; j++ {
		q.con[j] = make([]float64, len(q.act[j]))
		for t, i := range q.act[j] {
			q.con[j][t] = q.freshCon(j, int(i))
		}
		q.ter[j] = make([]float64, len(q.act[j]))
		for t := range q.act[j] {
			q.ter[j][t] = q.price(j, t, q.con[j][t])
		}
		q.mu[j] = q.scoreWith(j, -1, 0)
	}
	return q
}

// Layout returns the live layout the kernel is bound to. Callers may read it
// freely but must route mutations through the kernel.
func (q *IncrementalEvaluator) Layout() *Layout { return q.l }

// findActive locates obj in target j's active list: a result >= 0 is its
// position, a negative result r encodes the insertion point as -(r+1).
func (q *IncrementalEvaluator) findActive(j, obj int) int {
	a := q.act[j]
	o := int32(obj)
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < o {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a) && a[lo] == o {
		return lo
	}
	return -(lo + 1)
}

// freshCon computes S_ij from scratch: a merge-walk of target j's active
// list with object i's sparse overlap row. Only co-access partners of i can
// contribute; the walk visits them in ascending order, exactly the non-zero
// terms the dense active-list scan accumulated.
func (q *IncrementalEvaluator) freshCon(j, i int) float64 {
	var s float64
	idx, val, _ := q.ov.row(i)
	act, lam := q.act[j], q.lam[j]
	e, t := 0, 0
	for e < len(idx) && t < len(act) {
		switch {
		case idx[e] < act[t]:
			e++
		case idx[e] > act[t]:
			t++
		default:
			s += lam[t] * val[e]
			e++
			t++
		}
	}
	return s
}

// objTerm computes mu_ij exactly as Evaluator.objectUtil does, given the
// object's assigned fraction, contention factor and entry cells at that
// fraction. The caller has already established lij > Epsilon and
// totalRate[i] > 0.
func (q *IncrementalEvaluator) objTerm(j, i int, lij, chi float64, c *entryCells) float64 {
	ev := q.ev
	var mu float64
	if rr := ev.readRate[i] * lij; rr > 0 {
		mu += rr * ev.entryCost(j, false, ev.readSize[i], chi, c)
	}
	if wr := ev.writeRate[i] * lij; wr > 0 {
		mu += wr * ev.entryCost(j, true, ev.writeSize[i], chi, c)
	}
	return mu
}

// price returns the term of entry t of target j at contention sum s, from
// the entry's cached lambda and cells: mu_ij of Eq. 1 for i = act[j][t], or
// 0 for an entry Eq. 1 does not count (lij <= Epsilon or an idle object). A
// utilization is a sum of non-negative terms starting from +0, so adding a
// 0 term leaves it bit for bit unchanged. A cached term is price at the
// entry's own sum; a probe prices a partner at its shifted sum.
func (q *IncrementalEvaluator) price(j, t int, s float64) float64 {
	ev := q.ev
	i := int(q.act[j][t])
	lij := q.l.At(i, j)
	if lij <= Epsilon || ev.totalRate[i] <= 0 {
		return 0
	}
	chi := s/q.lam[j][t] + ev.selfChi[i]
	return q.objTerm(j, i, lij, chi, &q.cel[j][t])
}

// scoreWith computes mu_j as if L[obj][j] were frac, against the cached state
// and without mutating anything. obj = -1 scores the target as-is. This is
// the kernel's single scoring primitive: TryMove, Apply, ScoreObjectFrac and
// SetObjectRow all price targets through it, so a probed score and the cached
// utilization after the corresponding mutation are bit-identical.
//
// The active-list walk carries a merge pointer into obj's sparse overlap row
// (tval, the Overlap(i, obj) direction): only obj's co-access partners see
// their contention sums shift by dLam. They are priced here from their
// cached cells, exactly as setFrac re-prices them after the move (it shifts
// con in the same form). Every other active object adds its cached term;
// only obj's cells are prepared here. A probe thus costs O(active)
// additions plus O(partners) pricings, and sums the same terms in the same
// ascending order as pricing every entry would.
func (q *IncrementalEvaluator) scoreWith(j, obj int, frac float64) float64 {
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
		if dLam = lamObj - lamOld; dLam != 0 {
			oIdx, _, oTval = q.ov.row(obj)
		}
	}
	var mu float64
	e := 0
	act, ter := q.act[j], q.ter[j]
	for t, i32 := range act {
		if t == objPos {
			continue
		}
		for e < len(oIdx) && oIdx[e] < i32 {
			e++
		}
		if e == len(oIdx) || oIdx[e] != i32 {
			mu += ter[t]
			continue
		}
		s := q.con[j][t]
		s += dLam * oTval[e]
		mu += q.price(j, t, s)
	}
	if obj >= 0 && frac > Epsilon && ev.totalRate[obj] > 0 {
		var s float64
		if objPos >= 0 {
			s = q.con[j][objPos]
		} else {
			// S_obj is not cached while obj is inactive on j.
			s = q.freshCon(j, obj)
		}
		chi := s/lamObj + ev.selfChi[obj]
		c := ev.cells(j, obj, frac)
		mu += q.objTerm(j, obj, frac, chi, &c)
	}
	return mu
}

// EffectiveDelta folds a sub-Epsilon source residual into the moved fraction:
// a move that would leave less than Epsilon of obj on target from is promoted
// to a whole-assignment move, so no row mass is ever dropped by the dust
// clamp (the rows-sum-to-1 invariant is preserved exactly, and byte
// accounting downstream sees the true moved size).
func (q *IncrementalEvaluator) EffectiveDelta(obj, from int, delta float64) float64 {
	if have := q.l.At(obj, from); have-delta < Epsilon {
		return have
	}
	return delta
}

// checkMove rejects the degenerate moves that would corrupt the cached
// contention sums if they slipped through: a from == to transfer would
// double-apply the dLam shift to one target, and a negative delta inverts
// the dust clamp (have - delta < Epsilon promotes to a whole-assignment
// move in the wrong direction). Both are caller bugs, so they panic.
func checkMove(from, to int, delta float64) {
	if from == to {
		panic("layout: incremental move with from == to")
	}
	if delta < 0 {
		panic(fmt.Sprintf("layout: incremental move with negative delta %g", delta))
	}
}

// TryMove scores the transfer of delta of obj from one target to another
// without performing it, returning the two affected targets' would-be
// utilizations. All other targets are unaffected by a transfer move (the
// paper's argument for the formulation), so the caller combines these with
// the cached Utilization values. delta is normalized via EffectiveDelta.
// from and to must differ and delta must be non-negative.
func (q *IncrementalEvaluator) TryMove(obj, from, to int, delta float64) (muFrom, muTo float64) {
	checkMove(from, to, delta)
	delta = q.EffectiveDelta(obj, from, delta)
	muFrom = q.scoreWith(from, obj, q.l.At(obj, from)-delta)
	muTo = q.scoreWith(to, obj, q.l.At(obj, to)+delta)
	return muFrom, muTo
}

// Apply performs the transfer and updates the cached state of the two
// affected targets in O(active objects + overlap degree). It returns the
// effective moved fraction after dust-clamp folding (see EffectiveDelta),
// which is what byte accounting must use. The cached utilizations after
// Apply are bit-identical to the values TryMove returned for the same move.
func (q *IncrementalEvaluator) Apply(obj, from, to int, delta float64) float64 {
	checkMove(from, to, delta)
	delta = q.EffectiveDelta(obj, from, delta)
	newFrom := q.l.At(obj, from) - delta
	if delta == q.l.At(obj, from) {
		newFrom = 0 // exact, however the subtraction rounds
	}
	newTo := q.l.At(obj, to) + delta
	q.mu[from] = q.scoreWith(from, obj, newFrom)
	q.mu[to] = q.scoreWith(to, obj, newTo)
	q.setFrac(from, obj, newFrom)
	q.setFrac(to, obj, newTo)
	return delta
}

// setFrac updates L[obj][j] and target j's cached state: the lambda entry and
// the entry cells are recomputed exactly, the active list membership is
// adjusted, and every active co-access partner's contention sum shifts by
// dLam * Overlap(i, obj) (non-partners are untouched — their sums never
// contained an obj term). The terms of the shifted partners and of obj's own
// entry are re-priced; every other cached term still holds. Apply and
// SetObjectRow probe each change through scoreWith first, so each re-pricing
// repeats a pricing that has just succeeded with the same arguments and
// cannot raise a new model failure.
func (q *IncrementalEvaluator) setFrac(j, obj int, frac float64) {
	q.l.Set(obj, j, frac)
	lamNew := q.ev.totalRate[obj] * frac
	p := q.findActive(j, obj)
	var lamOld float64
	if p >= 0 {
		lamOld = q.lam[j][p]
	}
	if dLam := lamNew - lamOld; dLam != 0 {
		oIdx, _, oTval := q.ov.row(obj)
		act := q.act[j]
		e := 0
		for t, i32 := range act {
			for e < len(oIdx) && oIdx[e] < i32 {
				e++
			}
			if e < len(oIdx) && oIdx[e] == i32 && int(i32) != obj {
				q.con[j][t] += dLam * oTval[e]
				q.ter[j][t] = q.price(j, t, q.con[j][t])
			}
		}
	}
	switch {
	case frac != 0 && p < 0:
		// S_obj was not cached while obj was inactive; build it before
		// the object joins the active list.
		p = -(p + 1)
		q.insertActive(j, p, obj, lamNew, q.freshCon(j, obj), q.ev.cells(j, obj, frac))
	case frac == 0 && p >= 0:
		q.removeActive(j, p)
		return
	case p >= 0:
		q.lam[j][p] = lamNew
		q.cel[j][p] = q.ev.cells(j, obj, frac)
	default:
		return // inactive before and after
	}
	q.ter[j][p] = q.price(j, p, q.con[j][p])
}

// insertActive splices obj into target j's active list at position t,
// keeping ascending order so that scoreWith's summation order depends only
// on the set of active objects, never on the history of moves that produced
// it. The new entry's term is left 0 for the caller to price. Steady-state
// insertions reuse the capacity earlier removals left behind, keeping the
// Apply hot loop allocation-free.
func (q *IncrementalEvaluator) insertActive(j, t, obj int, lam, con float64, c entryCells) {
	q.act[j] = append(q.act[j], 0)
	copy(q.act[j][t+1:], q.act[j][t:])
	q.act[j][t] = int32(obj)
	q.lam[j] = append(q.lam[j], 0)
	copy(q.lam[j][t+1:], q.lam[j][t:])
	q.lam[j][t] = lam
	q.con[j] = append(q.con[j], 0)
	copy(q.con[j][t+1:], q.con[j][t:])
	q.con[j][t] = con
	q.cel[j] = append(q.cel[j], entryCells{})
	copy(q.cel[j][t+1:], q.cel[j][t:])
	q.cel[j][t] = c
	q.ter[j] = append(q.ter[j], 0)
	copy(q.ter[j][t+1:], q.ter[j][t:])
	q.ter[j][t] = 0
}

// removeActive drops the entry at position t from target j's active list.
// The slices are truncated, not reallocated, so their capacity survives for
// the next insertion.
func (q *IncrementalEvaluator) removeActive(j, t int) {
	a := q.act[j]
	copy(a[t:], a[t+1:])
	q.act[j] = a[:len(a)-1]
	lam := q.lam[j]
	copy(lam[t:], lam[t+1:])
	q.lam[j] = lam[:len(lam)-1]
	con := q.con[j]
	copy(con[t:], con[t+1:])
	q.con[j] = con[:len(con)-1]
	cel := q.cel[j]
	copy(cel[t:], cel[t+1:])
	q.cel[j] = cel[:len(cel)-1]
	ter := q.ter[j]
	copy(ter[t:], ter[t+1:])
	q.ter[j] = ter[:len(ter)-1]
}

// ForEachActive calls f for every object with a non-zero assignment on
// target j, in ascending object order, with its cached per-target request
// rate lambda_ij. It is the candidate-enumeration primitive the pruned
// transfer search uses to find the hottest objects on the most-utilized
// target without an O(N) column scan.
func (q *IncrementalEvaluator) ForEachActive(j int, f func(obj int, lam float64)) {
	for t, i := range q.act[j] {
		f(int(i), q.lam[j][t])
	}
}

// ActiveCount returns the number of objects with a non-zero assignment on
// target j.
func (q *IncrementalEvaluator) ActiveCount(j int) int { return len(q.act[j]) }

// ScoreObjectFrac returns mu_j as if L[obj][j] were frac, leaving the layout
// and cached state untouched. It prices one cell of a row replacement — a
// row change only affects targets whose own cell changed, so a full candidate
// row is priced by calling this per changed target (the regularizer's and
// polish pass's pattern).
func (q *IncrementalEvaluator) ScoreObjectFrac(j, obj int, frac float64) float64 {
	return q.scoreWith(j, obj, frac)
}

// SetObjectRow replaces object obj's row and updates every affected target's
// cached state. Unchanged cells cost nothing; each changed target is repriced
// through the same primitive ScoreObjectFrac uses, so previously probed
// scores match the cached utilizations bit-for-bit.
func (q *IncrementalEvaluator) SetObjectRow(obj int, row []float64) {
	if len(row) != q.m {
		panic(fmt.Sprintf("layout: row length %d, want %d", len(row), q.m))
	}
	for j := 0; j < q.m; j++ {
		if row[j] == q.l.At(obj, j) {
			continue
		}
		q.mu[j] = q.scoreWith(j, obj, row[j])
		q.setFrac(j, obj, row[j])
	}
}

// Utilization returns the cached mu_j.
func (q *IncrementalEvaluator) Utilization(j int) float64 { return q.mu[j] }

// Utilizations appends the cached per-target utilizations to dst and returns
// the extended slice. Pass dst[:0] to reuse a buffer, or nil to allocate.
func (q *IncrementalEvaluator) Utilizations(dst []float64) []float64 {
	return append(dst, q.mu...)
}

// MaxUtilization returns the cached optimization objective max_j mu_j.
func (q *IncrementalEvaluator) MaxUtilization() float64 {
	var max float64
	for _, u := range q.mu {
		if u > max {
			max = u
		}
	}
	return max
}
