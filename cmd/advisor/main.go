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
// The problem file describes objects, targets and per-object workloads:
//
//	{
//	  "objects": [
//	    {"name": "ORDERS", "size_mb": 8192, "kind": "table"},
//	    {"name": "ORDERS_PK", "size_mb": 1024, "kind": "index"}
//	  ],
//	  "targets": [
//	    {"name": "disk0", "capacity_mb": 102400, "model": "disk15k"},
//	    {"name": "ssd0", "capacity_mb": 32768, "model": "ssd"}
//	  ],
//	  "workloads": {"workloads": [
//	    {"name": "ORDERS", "read_size": 131072, "read_rate": 300, "run_count": 64},
//	    {"name": "ORDERS_PK", "read_size": 8192, "read_rate": 150, "run_count": 1}
//	  ]}
//	}
//
// A target's "model" is either a built-in device type ("disk15k",
// "disk7200", "ssd"), which is calibrated on first use, or "@file.json", a
// model previously saved by cmd/calibrate.
//
// With -execute the advisor additionally simulates the online migration
// from the current layout (an optional "current" fraction matrix in the
// problem file, one row per object; default SEE) to the recommendation,
// using the crash-safe engine in internal/migrate: moves run in a
// capacity-safe order, cycles are broken through a scratch reservation
// (-scratch-mb, 0 = auto-sized), and the copy stream can be throttled
// (-copy-rate in MiB/s, -queue-share). -journal names a write-ahead journal
// file in the migration engine's grammar; re-running with an existing
// journal resumes an interrupted migration from its checkpoint instead of
// restarting it, and a journal that records completion appends nothing.
// Built-in device types only: "@file" cost models carry no simulator
// configuration.
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
	"encoding/json"
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
	"dblayout/internal/storage"
	"dblayout/internal/wal"
)

type problemFile struct {
	Objects []struct {
		Name   string `json:"name"`
		SizeMB int64  `json:"size_mb"`
		Kind   string `json:"kind"`
	} `json:"objects"`
	Targets []struct {
		Name       string `json:"name"`
		CapacityMB int64  `json:"capacity_mb"`
		Model      string `json:"model"`
	} `json:"targets"`
	Workloads *dblayout.WorkloadSet `json:"workloads"`
	// Current optionally gives the layout the data occupies today, one
	// row of per-target fractions per object; -execute migrates from it.
	// Absent, the migration starts from SEE (striped over everything).
	Current [][]float64 `json:"current"`
}

func kindOf(s string) (dblayout.ObjectKind, error) {
	switch strings.ToLower(s) {
	case "table", "":
		return dblayout.KindTable, nil
	case "index":
		return dblayout.KindIndex, nil
	case "log":
		return dblayout.KindLog, nil
	case "temp":
		return dblayout.KindTemp, nil
	}
	return 0, fmt.Errorf("unknown object kind %q", s)
}

// modelFor resolves a target's model reference.
func modelFor(ref string, cache map[string]*costmodel.Model) (*costmodel.Model, error) {
	if m, ok := cache[ref]; ok {
		return m, nil
	}
	var m *costmodel.Model
	switch {
	case strings.HasPrefix(ref, "@"):
		f, err := os.Open(ref[1:])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err = costmodel.Load(f)
		if err != nil {
			return nil, err
		}
	case ref == "disk15k" || ref == "":
		fmt.Fprintln(os.Stderr, "calibrating disk15k model (one-time)...")
		m = dblayout.CalibrateDisk()
	case ref == "disk7200":
		fmt.Fprintln(os.Stderr, "calibrating disk7200 model (one-time)...")
		m = costmodel.Calibrate("disk7200", func(e *storage.Engine) storage.Device {
			return storage.NewDisk(e, "disk", storage.Disk7200Config())
		}, costmodel.DefaultGrid())
	case ref == "ssd":
		fmt.Fprintln(os.Stderr, "calibrating ssd model (one-time)...")
		m = dblayout.CalibrateSSD()
	default:
		return nil, fmt.Errorf("unknown model %q (want disk15k, disk7200, ssd, or @file.json)", ref)
	}
	cache[ref] = m
	return m, nil
}

func run() error {
	problemPath := flag.String("problem", "", "problem description JSON (required)")
	seed := flag.Int64("seed", 1, "solver random seed")
	budget := flag.Duration("budget", 0, "time budget for the whole advise: solves and polish stop when it runs out, then the best layout found so far is regularized and reported (0 = unlimited)")
	workers := flag.Int("workers", 0, "solver restart parallelism (0 = auto, 1 = serial); the layout is identical at any worker count")
	portfolio := flag.Bool("portfolio", false, "race the transfer, anneal and projected-gradient solvers concurrently and keep the racer whose layout ends lowest after regularize and polish")
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
	var pf problemFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return fmt.Errorf("parsing %s: %w", *problemPath, err)
	}

	p := dblayout.Problem{Workloads: pf.Workloads}
	for _, o := range pf.Objects {
		kind, err := kindOf(o.Kind)
		if err != nil {
			return err
		}
		p.Objects = append(p.Objects, dblayout.Object{Name: o.Name, Size: o.SizeMB << 20, Kind: kind})
	}
	cache := map[string]*costmodel.Model{}
	for _, t := range pf.Targets {
		m, err := modelFor(t.Model, cache)
		if err != nil {
			return err
		}
		p.Targets = append(p.Targets, &layout.Target{Name: t.Name, Capacity: t.CapacityMB << 20, Model: m})
	}

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
		reg.Gauge("solver_restarts").Set(float64(rec.SolverRestarts))
		reg.Gauge("solver_workers").Set(float64(rec.SolverWorkers))
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
		return executeMigration(&pf, p, rec.Final, executeOptions{
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

// deviceFor maps a problem target onto a simulator device spec. Only
// built-in device types can be simulated; calibrated "@file" models carry a
// cost table but no simulator configuration.
func deviceFor(name, model string, capacity int64) (replay.DeviceSpec, error) {
	switch model {
	case "disk15k", "":
		cfg := storage.Disk15KConfig()
		cfg.CapacityBytes = capacity
		return replay.DeviceSpec{Name: name, Disk: &cfg}, nil
	case "disk7200":
		cfg := storage.Disk7200Config()
		cfg.CapacityBytes = capacity
		return replay.DeviceSpec{Name: name, Disk: &cfg}, nil
	case "ssd":
		cfg := storage.SSD32Config()
		cfg.CapacityBytes = capacity
		return replay.DeviceSpec{Name: name, SSD: &cfg}, nil
	}
	return replay.DeviceSpec{}, fmt.Errorf("cannot simulate model %q for target %q: -execute needs a built-in device type (disk15k, disk7200, ssd)", model, name)
}

// currentLayout resolves the migration's starting layout: the problem
// file's "current" matrix when present, SEE otherwise.
func currentLayout(pf *problemFile, n, m int) (*layout.Layout, error) {
	if pf.Current == nil {
		return layout.SEE(n, m), nil
	}
	if len(pf.Current) != n {
		return nil, fmt.Errorf("\"current\" has %d rows for %d objects", len(pf.Current), n)
	}
	l := layout.New(n, m)
	for i, row := range pf.Current {
		if len(row) != m {
			return nil, fmt.Errorf("\"current\" row %d has %d fractions for %d targets", i, len(row), m)
		}
		l.SetRow(i, row)
	}
	if err := l.CheckIntegrity(); err != nil {
		return nil, fmt.Errorf("\"current\" layout: %w", err)
	}
	return l, nil
}

// executeMigration simulates the online migration from the current layout
// to the recommended one against an idle system, journaling every move so
// an interrupted run resumes from its checkpoint.
func executeMigration(pf *problemFile, p dblayout.Problem, target *dblayout.Layout, opt executeOptions) error {
	sys := &replay.System{Objects: p.Objects, StripeSize: p.StripeSize}
	sizes := make([]int64, len(p.Objects))
	for i, o := range p.Objects {
		sizes[i] = o.Size
	}
	caps := make([]int64, len(pf.Targets))
	for j, t := range pf.Targets {
		spec, err := deviceFor(t.Name, t.Model, t.CapacityMB<<20)
		if err != nil {
			return err
		}
		sys.Devices = append(sys.Devices, spec)
		caps[j] = t.CapacityMB << 20
	}
	current, err := currentLayout(pf, len(p.Objects), len(pf.Targets))
	if err != nil {
		return err
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
	reportMigration(pf, opt, res, scratch)
	return nil
}

// reportMigration prints the -execute summary.
func reportMigration(pf *problemFile, opt executeOptions, res *migrate.ExecuteResult, scratch migrate.ScratchSpec) {
	m := res.Migration
	staged := 0
	for _, s := range res.Script {
		if s.Kind == migrate.StepStageIn {
			staged++
		}
	}
	fmt.Printf("\nonline migration: %d moves (%d staged through %s scratch), %.1f MiB copied\n",
		len(res.Plan), staged, pf.Targets[scratch.Target].Name, float64(m.CommittedBytes)/(1<<20))
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
