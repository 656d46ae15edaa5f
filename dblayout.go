// Package dblayout is a workload-aware storage layout advisor for database
// systems, implementing Ozmen, Salem, Schindler and Daniel, "Workload-Aware
// Storage Layout for Database Systems" (SIGMOD 2010).
//
// Given a set of database objects (tables, indexes, logs, temporary
// tablespaces), a set of storage targets (disks, SSDs, RAID groups) with
// calibrated performance models, and a Rome-style I/O workload description
// per object, the advisor recommends a layout — an assignment of object
// fractions to targets — that minimizes the maximum predicted target
// utilization, balancing load while avoiding the interference that arises
// when temporally-correlated workloads share a target.
//
// # Quick start
//
//	objects := []dblayout.Object{
//	    {Name: "ORDERS", Size: 8 << 30, Kind: dblayout.KindTable},
//	    {Name: "ORDERS_PK", Size: 1 << 30, Kind: dblayout.KindIndex},
//	}
//	targets := []*dblayout.Target{
//	    {Name: "disk0", Capacity: 100 << 30, Model: diskModel},
//	    {Name: "ssd0", Capacity: 32 << 30, Model: ssdModel},
//	}
//	workloads, _ := dblayout.NewWorkloadSet(
//	    &dblayout.Workload{Name: "ORDERS", ReadSize: 131072, ReadRate: 300, RunCount: 64},
//	    &dblayout.Workload{Name: "ORDERS_PK", ReadSize: 8192, ReadRate: 150, RunCount: 1},
//	)
//	rec, err := dblayout.Recommend(dblayout.Problem{
//	    Objects: objects, Targets: targets, Workloads: workloads,
//	})
//
// Cost models come from calibration (CalibrateDisk, CalibrateSSD, or
// costmodel.Calibrate against any simulated device), from disk via
// LoadModel, or from your own measurements. Workload descriptions can be
// fitted from block I/O traces with FitWorkloads, mirroring the paper's
// trace-based methodology.
//
// The packages under internal/ contain the full reproduction of the paper's
// evaluation: the storage simulator standing in for the paper's testbed, the
// TPC-H/TPC-C workload specifications, the replay engine, the AutoAdmin
// baseline, and one experiment harness per figure (internal/experiments; run
// them with cmd/experiments).
package dblayout

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"dblayout/internal/core"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/nlp"
	"dblayout/internal/replay"
	"dblayout/internal/rome"
	"dblayout/internal/rubicon"
	"dblayout/internal/storage"
)

// Re-exported problem-description types. See the internal packages for full
// documentation of each field.
type (
	// Object is a database object to lay out.
	Object = layout.Object
	// ObjectKind classifies objects (table, index, log, temp).
	ObjectKind = layout.ObjectKind
	// Target is a storage target with a capacity and a cost model.
	Target = layout.Target
	// Layout is the N x M assignment matrix of object fractions to
	// targets.
	Layout = layout.Layout
	// Workload is the Rome-style per-object workload description.
	Workload = rome.Workload
	// WorkloadSet is an ordered collection of workloads.
	WorkloadSet = rome.Set
	// CostModel is a calibrated black-box target performance model.
	CostModel = costmodel.Model
	// Recommendation is the advisor's output with all intermediate
	// stages.
	Recommendation = core.Recommendation
	// Constraints are administrative placement restrictions.
	Constraints = layout.Constraints
	// TraceRecord is one block I/O request of a trace.
	TraceRecord = storage.TraceRecord
	// Trace is an in-memory block I/O trace.
	Trace = storage.Trace
	// TraceEvent is one solver iteration observed by Options.Trace.
	TraceEvent = nlp.TraceEvent
	// TrajPoint is one decimated point of a Recommendation's solver
	// objective trajectory.
	TrajPoint = nlp.TrajPoint
	// Degradation is the structured reason attached to a degraded
	// recommendation or repair.
	Degradation = core.Degradation
	// Repair is the output of RecommendRepair: a layout over the surviving
	// targets plus the migration plan to reach it.
	Repair = core.Repair
)

// Sentinel errors, matchable with errors.Is on anything Recommend,
// RecommendContext, PlaceIncremental, or RecommendRepair returns — including
// the Cause of a Degradation.
var (
	// ErrInfeasible reports a problem with no valid layout (capacity or
	// constraints).
	ErrInfeasible = core.ErrInfeasible
	// ErrBudgetExceeded reports that Options.SolveBudget ran out; the
	// recommendation carrying it as a degradation cause is still valid.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrModelFailure reports that a cost model panicked or produced a
	// non-finite or negative cost.
	ErrModelFailure = core.ErrModelFailure
)

// Object kinds.
const (
	KindTable = layout.KindTable
	KindIndex = layout.KindIndex
	KindLog   = layout.KindLog
	KindTemp  = layout.KindTemp
)

// NewWorkloadSet builds and validates a workload set.
func NewWorkloadSet(ws ...*Workload) (*WorkloadSet, error) {
	return rome.NewSet(ws...)
}

// Problem describes one layout problem.
type Problem struct {
	// Objects are the database objects, in workload order.
	Objects []Object
	// Targets are the storage targets.
	Targets []*Target
	// Workloads holds one description per object (same order and names
	// as Objects).
	Workloads *WorkloadSet
	// StripeSize is the stripe size of the mechanism implementing the
	// layout; zero selects the default (128 KiB).
	StripeSize int64
	// Constraints are optional administrative placement restrictions
	// (pin objects to targets, forbid targets, keep pairs separated).
	Constraints *Constraints
}

// Options tunes Recommend. The zero value selects the paper's defaults:
// transfer-search solver, multi-start from the heuristic initial layout and
// SEE, two solve/regularize rounds, regularization with polish.
type Options struct {
	// SkipRegularization returns the solver's possibly non-regular layout
	// directly, for layout mechanisms that support arbitrary fractions.
	SkipRegularization bool
	// Seed makes the search reproducible.
	Seed int64
	// Logger, when non-nil, receives advisor phase spans (seed, solve,
	// regularize, validate) with durations and objective deltas. Nil
	// disables logging with no overhead.
	Logger *slog.Logger
	// Trace, when non-nil, observes every solver iteration. The hook is
	// never called concurrently and must be fast. Nil disables tracing
	// with no overhead. Under parallel solving (see Workers) the delivered
	// stream is merged in deterministic restart order, so it is identical
	// at every worker count.
	Trace func(TraceEvent)
	// Workers bounds how many solver restarts run concurrently. Zero
	// selects min(restarts+1, GOMAXPROCS); 1 forces a fully serial solve.
	// The recommended layout is bit-identical for a given Seed at any
	// worker count — parallelism changes wall-clock time, never the
	// result — except when SolveBudget or a cancellation truncates the
	// search.
	Workers int
	// Portfolio runs the whole advise (both starting layouts, every
	// solve/regularize round) with the transfer, anneal and, when the
	// problem has no administrative constraints, projected-gradient
	// solvers, one solver after another, and keeps the best final layout.
	// A strictly lower final objective wins, so ties go to the earlier
	// solver in that order. Transfer runs first on the seeds it uses
	// alone, so the portfolio never ends worse than the default. It costs
	// about as much wall time as the three advises together.
	Portfolio bool
	// SolveBudget sets a deadline for the whole recommendation: solves and
	// polish sweeps stop when it passes, while the one-shot regularizer
	// still runs so the layout stays regular. The advisor then completes
	// with its best layout so far and marks the recommendation Degraded
	// (cause ErrBudgetExceeded) instead of failing. Zero means unbounded.
	SolveBudget time.Duration
}

// instance converts the problem into the internal representation.
func (p Problem) instance() *layout.Instance {
	return &layout.Instance{
		Objects:     p.Objects,
		Targets:     p.Targets,
		Workloads:   p.Workloads,
		StripeSize:  p.StripeSize,
		Constraints: p.Constraints,
	}
}

// Recommend runs the layout advisor on the problem and returns the
// recommendation. The returned Recommendation's Final layout is regular
// (unless SkipRegularization) and valid for the problem's capacities. It is
// RecommendContext with a background context.
func Recommend(p Problem, opts ...Options) (*Recommendation, error) {
	return RecommendContext(context.Background(), p, opts...)
}

// RecommendContext runs the layout advisor under a context.
//
// An already-cancelled context returns (nil, ctx.Err()) without solving.
// Cancellation mid-run stops the solvers within a few milliseconds and
// returns the best valid layout found so far — marked Degraded — alongside
// ctx.Err(). Budget exhaustion (Options.SolveBudget) and cost-model failures
// degrade instead of failing whenever a valid layout can still be produced;
// check Recommendation.Degraded and its Degradation for what happened.
func RecommendContext(ctx context.Context, p Problem, opts ...Options) (*Recommendation, error) {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	inst := p.instance()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	copt := core.Options{
		SkipRegularization: opt.SkipRegularization,
		NLP:                nlp.Options{Seed: opt.Seed, Trace: opt.Trace, Workers: opt.Workers},
		Logger:             opt.Logger,
		SolveBudget:        opt.SolveBudget,
	}
	if opt.Portfolio {
		copt.Solver = core.SolverPortfolio
	}
	// Seed from the heuristic initial layout plus SEE when both are
	// available; when the heuristic fails, leave seeding to the advisor,
	// whose ladder falls back to SEE by itself.
	if heuristic, err := layout.InitialLayout(inst); err == nil {
		copt.InitialLayouts = []*layout.Layout{heuristic}
		// SEE is a useful second starting point but may violate
		// administrative constraints; seed from it only when valid.
		if see := layout.SEE(inst.N(), inst.M()); inst.ValidateLayout(see) == nil {
			copt.InitialLayouts = append(copt.InitialLayouts, see)
		}
	}
	adv, err := core.New(inst, copt)
	if err != nil {
		return nil, err
	}
	return adv.RecommendContext(ctx)
}

// RecommendRepair re-solves the layout after the listed targets fail: it
// excludes them, pins every fraction residing on surviving targets, re-solves
// over the displaced objects, and returns the repaired layout together with
// the migration plan from `current`. See core.RecommendRepair for the full
// degraded-mode contract.
func RecommendRepair(ctx context.Context, p Problem, current *Layout, failed []int, opts ...Options) (*Repair, error) {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	return core.RecommendRepair(ctx, p.instance(), current, failed, core.Options{
		NLP:         nlp.Options{Seed: opt.Seed, Trace: opt.Trace, Workers: opt.Workers},
		Logger:      opt.Logger,
		SolveBudget: opt.SolveBudget,
	})
}

// Utilizations returns the advisor model's predicted per-target utilizations
// of a layout for the problem — the quantity the recommendation minimizes
// the maximum of.
func Utilizations(p Problem, l *Layout) ([]float64, error) {
	inst := p.instance()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := inst.ValidateLayout(l); err != nil {
		return nil, err
	}
	return layout.NewEvaluator(inst).Utilizations(l), nil
}

// SEE returns the stripe-everything-everywhere baseline layout for n objects
// on m targets.
func SEE(n, m int) *Layout { return layout.SEE(n, m) }

// Move is one step of a migration plan.
type Move = layout.Move

// MigrationPlan computes the data movements needed to convert one layout of
// the problem's objects into another, so a recommendation can be priced and
// acted on.
func MigrationPlan(p Problem, from, to *Layout) ([]Move, error) {
	sizes := make([]int64, len(p.Objects))
	for i, o := range p.Objects {
		sizes[i] = o.Size
	}
	return layout.MigrationPlan(from, to, sizes)
}

// PlanBytes sums the data volume a migration plan moves.
func PlanBytes(plan []Move) int64 { return layout.PlanBytes(plan) }

// PlaceIncremental places the listed (new or grown) objects into an existing
// layout without moving any other object's data — the FlexVol-style dynamic
// allocation mode sketched in the paper's conclusion. The instance must
// describe all objects; rows of `current` for the new objects are ignored.
func PlaceIncremental(p Problem, current *Layout, newObjects []int, seed int64) (*Layout, error) {
	return PlaceIncrementalContext(context.Background(), p, current, newObjects, seed)
}

// PlaceIncrementalContext is PlaceIncremental under a context: an
// already-cancelled context places nothing, and cancellation mid-optimization
// returns ctx.Err().
func PlaceIncrementalContext(ctx context.Context, p Problem, current *Layout, newObjects []int, seed int64) (*Layout, error) {
	return core.PlaceIncrementalContext(ctx, p.instance(), current, newObjects, nlp.Options{Seed: seed})
}

// FitOptions tunes workload fitting from traces.
type FitOptions struct {
	// WindowSize is the co-activity window for temporal overlap
	// estimation (default 1 s).
	WindowSize float64
	// ActiveRates computes request rates over active windows rather than
	// the whole trace; recommended for bursty (phase-structured)
	// workloads.
	ActiveRates bool
}

// FitWorkloads fits Rome-style workload descriptions from a block I/O
// trace, one per object name; trace records carry object indices into the
// names slice. This is the role the Rubicon tool plays in the paper.
func FitWorkloads(tr *Trace, names []string, opt FitOptions) (*WorkloadSet, error) {
	return rubicon.FitSet(tr, names, rubicon.Options{
		WindowSize:  opt.WindowSize,
		ActiveRates: opt.ActiveRates,
	})
}

// CalibrateDisk builds a cost model for the built-in 15K RPM disk simulator
// using the full calibration sweep. For custom devices use
// costmodel.Calibrate directly.
func CalibrateDisk() *CostModel {
	m, _ := replay.CalibrateBuiltin("disk15k", costmodel.DefaultGrid()) // a built-in type: no error
	return m
}

// CalibrateSSD builds a cost model for the built-in SSD simulator.
func CalibrateSSD() *CostModel {
	m, _ := replay.CalibrateBuiltin("ssd", costmodel.DefaultGrid()) // a built-in type: no error
	return m
}

// SaveModel writes a cost model as JSON.
func SaveModel(w io.Writer, m *CostModel) error { return m.Save(w) }

// LoadModel reads a cost model saved by SaveModel.
func LoadModel(r io.Reader) (*CostModel, error) { return costmodel.Load(r) }

// ReadTrace parses a JSON-lines block I/O trace.
func ReadTrace(r io.Reader) (*Trace, error) { return storage.ReadTrace(r) }

// FormatLayout renders a layout as a percentage table with object and target
// names.
func FormatLayout(p Problem, l *Layout) string {
	out := fmt.Sprintf("%-20s", "Object")
	for _, t := range p.Targets {
		out += fmt.Sprintf(" %10s", t.Name)
	}
	out += "\n"
	for i, o := range p.Objects {
		out += fmt.Sprintf("%-20s", o.Name)
		for j := range p.Targets {
			if v := l.At(i, j); v > 1e-9 {
				out += fmt.Sprintf(" %9.1f%%", 100*v)
			} else {
				out += fmt.Sprintf(" %10s", ".")
			}
		}
		out += "\n"
	}
	return out
}
