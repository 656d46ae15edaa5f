package layout

import (
	"fmt"
	"math"

	"dblayout/internal/costmodel"
	"dblayout/internal/rome"
)

// Evaluator predicts storage target utilizations for candidate layouts using
// the model structure of paper Fig. 6: the layout model (Fig. 7) transforms
// each object's workload into per-target workloads, the contention factor
// (Eq. 2) summarizes interference from co-located temporally-correlated
// workloads, and the per-target black-box cost model converts request rates
// into utilization (Eq. 1).
//
// An Evaluator is immutable after construction and safe for concurrent use
// with distinct Layout values.
type Evaluator struct {
	inst *Instance

	// tables[j] is target j's model when it is a calibrated table
	// (*costmodel.Model), and nil for any other CostModel. The incremental
	// kernel prices table targets from cached cells (see entryCells) and
	// every other model through Cost.
	tables []*costmodel.Model

	// Cached per-object workload scalars.
	readRate, writeRate []float64
	readSize, writeSize []float64
	meanSize            []float64
	runCount            []float64
	totalRate           []float64
	selfChi             []float64

	// ov is the sparse overlap matrix (CSR rows of non-zero co-access
	// pairs), built once and shared read-only with every
	// IncrementalEvaluator. See overlapCSR.
	ov *overlapCSR
}

// NewEvaluator prepares an evaluator for the instance. The instance must
// already be validated.
func NewEvaluator(inst *Instance) *Evaluator {
	n := inst.N()
	ev := &Evaluator{
		inst:      inst,
		readRate:  make([]float64, n),
		writeRate: make([]float64, n),
		readSize:  make([]float64, n),
		writeSize: make([]float64, n),
		meanSize:  make([]float64, n),
		runCount:  make([]float64, n),
		totalRate: make([]float64, n),
		selfChi:   make([]float64, n),
		tables:    make([]*costmodel.Model, inst.M()),
	}
	for j, t := range inst.Targets {
		ev.tables[j], _ = t.Model.(*costmodel.Model)
	}
	for i, w := range inst.Workloads.Workloads {
		ev.readRate[i] = w.ReadRate
		ev.writeRate[i] = w.WriteRate
		ev.readSize[i] = w.ReadSize
		ev.writeSize[i] = w.WriteSize
		ev.meanSize[i] = w.MeanSize()
		ev.runCount[i] = w.RunCount
		ev.totalRate[i] = w.TotalRate()
		// Self-interference extension to Eq. 2: a workload made of c
		// concurrent streams interferes with itself — per stream, the
		// other c-1 streams' requests are temporally-correlated
		// competitors on every target holding the object, regardless
		// of the layout.
		if c := w.Concurrency; c > 1 {
			ev.selfChi[i] = c - 1
		}
	}
	ev.ov = buildOverlapCSR(inst.Workloads)
	return ev
}

// Instance returns the instance the evaluator was built for.
func (ev *Evaluator) Instance() *Instance { return ev.inst }

// Workloads returns the instance's workload set.
func (ev *Evaluator) Workloads() *rome.Set { return ev.inst.Workloads }

// runCountOn computes Q_ij, the run count object i exhibits on a target
// holding fraction lij of it, per the striping layout model of Fig. 7:
//
//   - a run shorter than one stripe lands on a single target intact;
//   - a run spanning at least 1/lij stripes is divided so the target sees
//     its proportional, physically-contiguous share;
//   - in between, the target sees about one stripe's worth of requests.
func (ev *Evaluator) runCountOn(i int, lij float64) float64 {
	qi, bi := ev.runCount[i], ev.meanSize[i]
	if bi <= 0 || lij <= 0 {
		return 1
	}
	stripe := ev.inst.stripeSize()
	runBytes := qi * bi
	var q float64
	switch {
	case runBytes < stripe:
		q = qi
	case runBytes > stripe/lij:
		q = qi * lij
	default:
		q = stripe / bi
	}
	if q < 1 {
		q = 1
	}
	return q
}

// contention computes the contention factor chi_ij of Eq. 2 for object i on
// target j: the rate of temporally-correlated requests from other workloads
// on the same target, per request of object i's own per-target workload.
// rates[k] must hold lambda_kj = (read+write rate of k) * L[k][j].
//
// Only object i's co-access partners can contribute (every other k has
// Overlap(i, k) = 0), so the scan walks i's CSR row instead of all N rates.
// The row is ascending and carries exactly the non-zero entries the dense
// scan would have admitted past its o > 0 guard, so the summation visits
// the same terms in the same order and the result is bit-identical.
func (ev *Evaluator) contention(i int, rates []float64, ownRate float64) float64 {
	if ownRate <= 0 {
		return 0
	}
	var sum float64
	idx, val, _ := ev.ov.row(i)
	for e, k := range idx {
		if rk := rates[k]; rk > 0 {
			if o := val[e]; o > 0 {
				sum += rk * o
			}
		}
	}
	return sum/ownRate + ev.selfChi[i]
}

// targetRates fills rates[k] = total request rate of object k on target j.
func (ev *Evaluator) targetRates(l *Layout, j int, rates []float64) {
	for k := 0; k < l.N; k++ {
		rates[k] = ev.totalRate[k] * l.At(k, j)
	}
}

// objectUtil computes mu_ij (Eq. 1) given precomputed per-target rates.
func (ev *Evaluator) objectUtil(l *Layout, i, j int, rates []float64) float64 {
	lij := l.At(i, j)
	if lij <= Epsilon || ev.totalRate[i] <= 0 {
		return 0
	}
	model := ev.inst.Targets[j].Model
	q := ev.runCountOn(i, lij)
	chi := ev.contention(i, rates, rates[i])
	var mu float64
	if rr := ev.readRate[i] * lij; rr > 0 {
		mu += rr * ev.cost(j, model, false, ev.readSize[i], q, chi)
	}
	if wr := ev.writeRate[i] * lij; wr > 0 {
		mu += wr * ev.cost(j, model, true, ev.writeSize[i], q, chi)
	}
	return mu
}

// cost guards one black-box model evaluation: a NaN, infinite, or negative
// per-request cost is a model defect that would silently corrupt every
// utilization derived from it, so it raises a typed model-failure panic for
// the advisor's recovery layer (see AsModelFailure) instead of propagating
// garbage into the solver.
func (ev *Evaluator) cost(j int, model CostModel, write bool, size, runCount, chi float64) float64 {
	return ev.guard(j, write, size, runCount, chi, model.Cost(write, size, runCount, chi))
}

// guard is cost's check of c, the per-request cost of one evaluation at the
// given arguments, however it was computed.
func (ev *Evaluator) guard(j int, write bool, size, runCount, chi, c float64) float64 {
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		dir := "read"
		if write {
			dir = "write"
		}
		panic(&modelFailure{
			target: ev.inst.Targets[j].Name,
			detail: fmt.Sprintf("%s cost(size=%g, run=%g, chi=%g) = %g", dir, size, runCount, chi, c),
		})
	}
	return c
}

// TargetUtilization returns mu_j, the predicted utilization of target j
// under layout l: the sum over objects of mu_ij.
func (ev *Evaluator) TargetUtilization(l *Layout, j int) float64 {
	rates := make([]float64, l.N)
	return ev.targetUtilization(l, j, rates)
}

func (ev *Evaluator) targetUtilization(l *Layout, j int, rates []float64) float64 {
	ev.targetRates(l, j, rates)
	var mu float64
	for i := 0; i < l.N; i++ {
		mu += ev.objectUtil(l, i, j, rates)
	}
	return mu
}

// Utilizations returns mu_j for every target.
func (ev *Evaluator) Utilizations(l *Layout) []float64 {
	us := make([]float64, l.M)
	rates := make([]float64, l.N)
	for j := 0; j < l.M; j++ {
		us[j] = ev.targetUtilization(l, j, rates)
	}
	return us
}

// MaxUtilization returns the optimization objective of Definition 1:
// max_j mu_j.
func (ev *Evaluator) MaxUtilization(l *Layout) float64 {
	var max float64
	rates := make([]float64, l.N)
	for j := 0; j < l.M; j++ {
		if u := ev.targetUtilization(l, j, rates); u > max {
			max = u
		}
	}
	return max
}

// ObjectUtilization returns mu_ij for one object-target pair.
func (ev *Evaluator) ObjectUtilization(l *Layout, i, j int) float64 {
	rates := make([]float64, l.N)
	ev.targetRates(l, j, rates)
	return ev.objectUtil(l, i, j, rates)
}

// ObjectLoad returns sum_j mu_ij, the total storage system load imposed by
// object i — the ordering key of the regularization algorithm (Sec. 4.3).
func (ev *Evaluator) ObjectLoad(l *Layout, i int) float64 {
	var load float64
	rates := make([]float64, l.N)
	for j := 0; j < l.M; j++ {
		ev.targetRates(l, j, rates)
		load += ev.objectUtil(l, i, j, rates)
	}
	return load
}

// ObjectLoads returns ObjectLoad for every object in a single pass over the
// targets: each target's request rates are computed once and charged to all
// objects, so the whole vector costs what one ObjectLoad call does instead
// of N of them. Every object accumulates its per-target terms in the same
// ascending-j order as ObjectLoad, so the results are bit-identical to the
// per-object path.
func (ev *Evaluator) ObjectLoads(l *Layout) []float64 {
	loads := make([]float64, l.N)
	rates := make([]float64, l.N)
	for j := 0; j < l.M; j++ {
		ev.targetRates(l, j, rates)
		for i := 0; i < l.N; i++ {
			loads[i] += ev.objectUtil(l, i, j, rates)
		}
	}
	return loads
}

// Breakdown describes one target's predicted utilization and its per-object
// composition, used by the reporting code behind paper Fig. 13.
type Breakdown struct {
	Target      string
	Utilization float64
	PerObject   []float64
}

// BreakdownAll returns the utilization breakdown of every target.
func (ev *Evaluator) BreakdownAll(l *Layout) []Breakdown {
	out := make([]Breakdown, l.M)
	rates := make([]float64, l.N)
	for j := 0; j < l.M; j++ {
		ev.targetRates(l, j, rates)
		b := Breakdown{Target: ev.inst.Targets[j].Name, PerObject: make([]float64, l.N)}
		for i := 0; i < l.N; i++ {
			mu := ev.objectUtil(l, i, j, rates)
			b.PerObject[i] = mu
			b.Utilization += mu
		}
		out[j] = b
	}
	return out
}
