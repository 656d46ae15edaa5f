// Command advisor recommends an optimized database storage layout from a
// problem description, acting as the standalone layout advisor the paper
// proposes.
//
// Usage:
//
//	advisor -problem problem.json [-seed N] [-budget 30s] [-workers N]
//	        [-portfolio] [-non-regular] [-utilizations] [-v | -log-level L]
//	        [-trace-out solver.jsonl] [-metrics-out metrics.prom]
//	        [-metrics-flush 5s] [-listen addr] [-listen-hold 30s]
//	        [-cpuprofile f] [-memprofile f]
//	        [-execute] [-journal f] [-copy-rate MiBps] [-queue-share S]
//	        [-scratch-mb N]
//
// With -listen the advisor serves its live metrics over HTTP while it runs:
// /metrics (Prometheus text), /metrics.json, /series (windowed time-series
// data) and /debug/pprof. -listen-hold keeps the endpoint up after the run
// finishes so a scraper can collect the final state.
//
// The printed solver and regularization times, the -utilizations "solver
// effort" line and the solver_*_total and advisor_*_seconds metrics count
// the whole advise: every solver, initial layout and round. -trace-out
// writes one line per iteration that count includes.
//
// The problem file is the problem document described in README "Problem
// document": objects, targets with their cost models, per-object workloads
// and an optional "current" layout. A target's "model" is a built-in device
// type ("disk15k", "disk7200", "ssd"), calibrated on first use, or
// "@file.json", a model saved by cmd/calibrate; "model_json" carries one
// inline. A malformed document exits 1 before any model is calibrated.
//
// With -execute the advisor additionally simulates the online migration
// from the current layout (the document's "current" matrix; default SEE)
// to the recommendation, using the crash-safe engine in internal/migrate:
// moves run in a capacity-safe order, cycles are broken through a scratch
// reservation (-scratch-mb, 0 = auto-sized), and the copy stream can be
// throttled (-copy-rate in MiB/s, -queue-share). -journal names a
// write-ahead journal file in the migration engine's grammar; re-running
// with an existing journal resumes an interrupted migration from its
// checkpoint instead of restarting it, and a journal that records
// completion appends nothing. Built-in device types only: "@file" and
// "model_json" cost models carry no simulator configuration, so -execute
// refuses a document with either before it solves, and an "@file" one
// before it calibrates any model.
//
// Exit codes distinguish failure classes so scripts can react:
//
//	0  success (including degraded recommendations, reported on stderr)
//	1  generic error (bad flags, unreadable input, ...)
//	2  infeasible problem (data cannot fit the targets)
//	3  solve budget exhausted before any usable layout was produced
//	4  cost-model failure prevented a recommendation
//	5  interrupted (SIGINT/SIGTERM before a layout was available)
//	6  migration aborted on a device fault (-execute; the engine journal
//	   holds the consistent state, replan with the repair advisor)
//	7  migration deadlocked with insufficient scratch space (-execute;
//	   raise -scratch-mb)
//	8  engine journal corrupt (the resumed -journal file failed CRC or
//	   grammar validation, or was written for a different migration; it
//	   must not be trusted or appended to)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dblayout"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/obs"
	"dblayout/internal/replay"
	"dblayout/internal/wal"
)

// errNoSimulator is why -execute refuses a target whose cost model is not a
// built-in device type.
var errNoSimulator = errors.New(`-execute simulates built-in device types only; an "@file" or model_json cost model has no simulator configuration`)

// namedModels resolves the problem document's named target models: an
// "@file" reference loads a model saved by cmd/calibrate, and a built-in
// device type is calibrated once per run. Under -execute an "@file"
// reference is refused, and the reader resolves those before any built-in
// type, so the refusal costs no calibration.
func namedModels(execute bool) func(ref string) (*costmodel.Model, error) {
	cache := map[string]*costmodel.Model{}
	return func(ref string) (m *costmodel.Model, err error) {
		if m = cache[ref]; m != nil {
			return m, nil
		}
		if path, ok := strings.CutPrefix(ref, "@"); ok {
			if execute {
				return nil, errNoSimulator
			}
			var f *os.File
			if f, err = os.Open(path); err != nil {
				return nil, err
			}
			defer f.Close()
			m, err = costmodel.Load(f)
		} else {
			fmt.Fprintf(os.Stderr, "calibrating %s model (one-time)...\n", ref)
			m, err = replay.CalibrateBuiltin(ref, costmodel.DefaultGrid())
		}
		cache[ref] = m
		return m, err
	}
}

func run() error {
	problemPath := flag.String("problem", "", "problem description JSON (required)")
	seed := flag.Int64("seed", 1, "solver random seed")
	budget := flag.Duration("budget", 0, "time budget for the whole advise: solves and polish stop when it runs out, then the best layout found so far is regularized and reported (0 = unlimited)")
	workers := flag.Int("workers", 0, "solver restart parallelism (0 = auto, 1 = serial); the layout is identical at any worker count")
	portfolio := flag.Bool("portfolio", false, "run the whole advise with each of the transfer, anneal and (without constraints) projected-gradient solvers in turn and keep the best final layout, never worse than transfer alone")
	nonRegular := flag.Bool("non-regular", false, "skip regularization (solver output may use uneven fractions)")
	showUtils := flag.Bool("utilizations", false, "also print predicted per-target utilizations")
	execute := flag.Bool("execute", false, "simulate the online migration from the current layout to the recommendation")
	journalPath := flag.String("journal", "", "write-ahead journal file for -execute; an existing journal resumes the migration")
	copyRate := flag.Float64("copy-rate", 0, "migration copy throttle in MiB/s for -execute (0 = unthrottled)")
	queueShare := flag.Float64("queue-share", 0.5, "max share of a device queue the migration copy stream may occupy (1 disables yielding)")
	scratchMB := flag.Int64("scratch-mb", 0, "scratch reservation for breaking migration capacity deadlocks (0 = auto-sized)")
	var cli obs.CLI
	cli.Register(flag.CommandLine)
	flag.Parse()

	if *problemPath == "" {
		flag.Usage()
		return fmt.Errorf("-problem is required")
	}
	// Catch SIGINT/SIGTERM from the start so a signal during model
	// calibration still yields the documented exit code; after the first
	// signal restore default disposition so a second one force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	sess, err := cli.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "advisor: closing observability outputs:", cerr)
		}
	}()
	data, err := os.ReadFile(*problemPath)
	if err != nil {
		return err
	}
	doc, err := dblayout.ReadDocument(data, namedModels(*execute))
	if err != nil {
		return err
	}
	if *execute {
		// Refuse a model_json target before solving, not after.
		if _, err := simulatedDevices(doc); err != nil {
			return err
		}
	}
	p := doc.Problem

	opt := dblayout.Options{
		Seed:               *seed,
		SolveBudget:        *budget,
		Workers:            *workers,
		Portfolio:          *portfolio,
		SkipRegularization: *nonRegular,
		Logger:             sess.Logger,
	}
	if sess.Trace != nil {
		opt.Trace = func(ev dblayout.TraceEvent) { sess.Trace.Write(ev) }
	}
	start := time.Now()
	rec, err := dblayout.RecommendContext(ctx, p, opt)
	elapsed := time.Since(start)
	if err != nil {
		if rec != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// Interrupted mid-solve with a usable layout in hand: report it,
			// flagged degraded below, rather than throwing the work away.
			fmt.Fprintln(os.Stderr, "advisor: interrupted, reporting best layout found so far")
		} else {
			return err
		}
	}
	if rec.Degraded {
		fmt.Fprintln(os.Stderr, "advisor: WARNING: recommendation is degraded:", rec.Degradation)
	}
	if reg := sess.Registry; reg != nil {
		reg.Counter("solver_iters_total").Add(int64(rec.SolverIters))
		reg.Counter("solver_evals_total").Add(int64(rec.SolverEvals))
		reg.Gauge("advisor_final_objective").Set(rec.FinalObjective)
		reg.Gauge("advisor_solver_objective").Set(rec.SolverObjective)
		reg.Gauge("advisor_solve_seconds").Set(rec.SolveTime.Seconds())
		reg.Gauge("advisor_regularize_seconds").Set(rec.RegularizeTime.Seconds())
		reg.Gauge("advisor_elapsed_seconds").Set(elapsed.Seconds())
	}

	fmt.Printf("recommended layout (predicted max utilization %.1f%%, SEE %.1f%%):\n\n",
		100*rec.FinalObjective, 100*seeObjective(p))
	fmt.Print(dblayout.FormatLayout(p, rec.Final))
	fmt.Printf("\nsolver time %v, regularization time %v\n", rec.SolveTime, rec.RegularizeTime)

	if *showUtils {
		utils, err := dblayout.Utilizations(p, rec.Final)
		if err != nil {
			return err
		}
		fmt.Println("\npredicted target utilizations:")
		for j, u := range utils {
			fmt.Printf("  %-12s %6.1f%%\n", p.Targets[j].Name, 100*u)
		}
		fmt.Printf("\nsolver effort: %d iterations, %d objective evaluations, %v total\n",
			rec.SolverIters, rec.SolverEvals, elapsed.Round(time.Millisecond))
	}
	if *execute {
		return executeMigration(doc, rec.Final, executeOptions{
			journalPath: *journalPath,
			copyRate:    *copyRate,
			queueShare:  *queueShare,
			scratchMB:   *scratchMB,
			metrics:     sess.Registry,
		})
	}
	return nil
}

type executeOptions struct {
	journalPath string
	copyRate    float64
	queueShare  float64
	scratchMB   int64
	metrics     *obs.Registry
}

// simulatedDevices returns the device -execute simulates for each target of
// doc, refusing a target whose model is not a built-in device type.
func simulatedDevices(doc *dblayout.Document) ([]replay.DeviceSpec, error) {
	var devices []replay.DeviceSpec
	for j, t := range doc.Problem.Targets {
		spec, err := replay.Builtin(doc.Models[j], t.Name, t.Capacity)
		if err != nil {
			return nil, fmt.Errorf("target %q: %w", t.Name, errNoSimulator)
		}
		devices = append(devices, spec)
	}
	return devices, nil
}

// executeMigration simulates the online migration from the current layout
// to the recommended one against an idle system, journaling every move so
// an interrupted run resumes from its checkpoint.
func executeMigration(doc *dblayout.Document, target *dblayout.Layout, opt executeOptions) error {
	p, current := doc.Problem, doc.Current
	devices, err := simulatedDevices(doc)
	if err != nil {
		return err
	}
	sys := &replay.System{Objects: p.Objects, Devices: devices, StripeSize: p.StripeSize}
	sizes := make([]int64, len(p.Objects))
	for i, o := range p.Objects {
		sizes[i] = o.Size
	}
	caps := make([]int64, len(p.Targets))
	for j, t := range p.Targets {
		caps[j] = t.Capacity
	}

	var journal io.Writer
	var resume []byte
	if opt.journalPath != "" {
		data, f, err := wal.OpenAppend(opt.journalPath)
		if err != nil {
			return err
		}
		defer f.Close()
		journal, resume = f, data
		if len(resume) > 0 {
			fmt.Fprintf(os.Stderr, "advisor: resuming migration from journal %s\n", opt.journalPath)
		}
	}

	scratch := migrate.AutoScratch(current, target, sizes, caps)
	if opt.scratchMB > 0 {
		scratch.Bytes = opt.scratchMB << 20
	}
	// The LVM mapper only implements regular layouts; the run is idle, so
	// any regular stand-in validates when "current" is not regular.
	mapper := current
	if !mapper.IsRegular() {
		mapper = layout.SEE(len(p.Objects), len(caps))
	}
	res, err := migrate.Execute(sys, current, target, nil, replay.Options{Seed: 1, Metrics: opt.metrics}, migrate.Options{
		BytesPerSec:   opt.copyRate * (1 << 20),
		MaxQueueShare: opt.queueShare,
		Scratch:       scratch,
		Journal:       journal,
		Resume:        resume,
		MapperLayout:  mapper,
		Metrics:       opt.metrics,
	})
	if err != nil {
		return fmt.Errorf("executing migration: %w", err)
	}
	reportMigration(p, opt, res, scratch)
	return nil
}

// reportMigration prints the -execute summary.
func reportMigration(p dblayout.Problem, opt executeOptions, res *migrate.ExecuteResult, scratch migrate.ScratchSpec) {
	m := res.Migration
	staged := 0
	for _, s := range res.Script {
		if s.Kind == migrate.StepStageIn {
			staged++
		}
	}
	fmt.Printf("\nonline migration: %d moves (%d staged through %s scratch), %.1f MiB copied\n",
		len(res.Plan), staged, p.Targets[scratch.Target].Name, float64(m.CommittedBytes)/(1<<20))
	if m.Elapsed > 0 {
		fmt.Printf("simulated duration %.2fs (%.1f MiB/s effective)\n",
			m.Elapsed, float64(m.CommittedBytes)/(1<<20)/m.Elapsed)
	} else {
		fmt.Println("nothing left to copy (layouts already agree, or the journal records completion)")
	}
	if opt.journalPath != "" {
		fmt.Printf("journal: %s (%d records appended)\n", opt.journalPath, m.JournalRecords)
	}
}

func seeObjective(p dblayout.Problem) float64 {
	utils, err := dblayout.Utilizations(p, dblayout.SEE(len(p.Objects), len(p.Targets)))
	if err != nil {
		return 0
	}
	max := 0.0
	for _, u := range utils {
		if u > max {
			max = u
		}
	}
	return max
}

// exitCode maps failure classes to distinct exit codes (documented in the
// package comment) so callers can distinguish "won't ever work" (infeasible)
// from "needs more time" (budget) from "model is broken" (model failure).
func exitCode(err error) int {
	switch {
	case errors.Is(err, dblayout.ErrInfeasible):
		return 2
	case errors.Is(err, dblayout.ErrBudgetExceeded):
		return 3
	case errors.Is(err, dblayout.ErrModelFailure):
		return 4
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 5
	case errors.Is(err, migrate.ErrMigrationAborted):
		return 6
	case errors.Is(err, migrate.ErrScratchExhausted):
		return 7
	case errors.Is(err, migrate.ErrJournalCorrupt):
		return 8
	}
	return 1
}

func main() {
	if err := run(); err != nil {
		switch code := exitCode(err); code {
		case 2:
			fmt.Fprintln(os.Stderr, "advisor: infeasible problem:", err)
			os.Exit(code)
		case 3:
			fmt.Fprintln(os.Stderr, "advisor: solve budget exhausted:", err)
			os.Exit(code)
		case 4:
			fmt.Fprintln(os.Stderr, "advisor: cost model failure:", err)
			os.Exit(code)
		case 5:
			fmt.Fprintln(os.Stderr, "advisor: interrupted:", err)
			os.Exit(code)
		case 6:
			fmt.Fprintln(os.Stderr, "advisor: migration aborted:", err)
			os.Exit(code)
		case 7:
			fmt.Fprintln(os.Stderr, "advisor: migration scratch space exhausted:", err)
			os.Exit(code)
		case 8:
			fmt.Fprintln(os.Stderr, "advisor: journal corrupt:", err)
			os.Exit(code)
		default:
			fmt.Fprintln(os.Stderr, "advisor:", err)
			os.Exit(code)
		}
	}
}
