// Command experiments reproduces the tables and figures of the paper's
// evaluation (Sec. 6) end-to-end: it traces the SQL workloads under the SEE
// baseline on the simulated storage system, fits workload models, calibrates
// target cost models, runs the layout advisor, and replays the workloads
// under every layout the paper compares.
//
// Usage:
//
//	experiments [-run all|fig8|fig11|fig15|fig17|fig18|fig19|fig20|ablation|degraded|migration|drift|autonomic|chaos|fleet]
//	            [-quick] [-seed N] [-seeds N] [-v | -log-level L] [-trace-out solver.jsonl]
//	            [-metrics-out metrics.prom] [-metrics-flush 5s]
//	            [-listen addr] [-listen-hold 30s]
//	            [-drift-events events.jsonl]
//	            [-cpuprofile f] [-memprofile f]
//
// fig11 also prints the layout figures (1, 12, 14) and utilization-stage
// figure (13) derived from the same runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dblayout/internal/experiments"
	"dblayout/internal/nlp"
	"dblayout/internal/obs"
)

func main() {
	which := flag.String("run", "all", "experiment to run: all, fig8, fig11, fig15, fig17, fig18, fig19, fig20, ablation, degraded, migration, drift, autonomic, chaos, fleet")
	quick := flag.Bool("quick", false, "reduced scale (coarse calibration, fewer queries)")
	seed := flag.Int64("seed", 1, "replay and solver seed")
	seeds := flag.Int("seeds", 0, "chaos campaign scenario count (0 = default 50)")
	workers := flag.Int("workers", 0, "solver restart parallelism (0 = auto, 1 = serial); results are identical at any worker count")
	driftEvents := flag.String("drift-events", "", "write the drift experiment's detection events as JSON lines to this file")
	var cli obs.CLI
	cli.Register(flag.CommandLine)
	flag.Parse()

	sess, err := cli.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	closeSession := sync.OnceFunc(func() {
		if cerr := sess.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "experiments: closing observability outputs:", cerr)
		}
	})
	defer closeSession()
	// A killed run still leaves its metrics, trace and profiles: on
	// SIGINT/SIGTERM restore the default disposition (so a second signal
	// kills at once), close the session, then re-deliver the signal so the
	// process dies as it would have (exit 143 on SIGTERM).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		got := <-sig
		signal.Stop(sig)
		closeSession()
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			_ = p.Signal(got)
		}
	}()

	cfg := experiments.NewConfig()
	if *quick {
		cfg = experiments.NewQuickConfig()
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Logger = sess.Logger
	cfg.Metrics = sess.Registry
	if sess.Trace != nil {
		cfg.Trace = func(ev nlp.TraceEvent) { sess.Trace.Write(ev) }
	}
	if *driftEvents != "" {
		f, err := os.Create(*driftEvents)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.DriftEvents = f
	}

	run := func(name string, fn func() error) {
		if *which != "all" && *which != name {
			return
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", strings.ToUpper(name))
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("fig8", func() error {
		series, err := experiments.Fig8CostSlice(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.Fig8Table(series))
		return nil
	})

	run("fig11", func() error {
		runs, err := experiments.Homogeneous(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 11 — workload execution times, homogeneous targets:")
		fmt.Print(experiments.Fig11Table(runs))
		for _, r := range runs {
			fmt.Printf("\nFig. 13 — %s\n%s", r.Workload, experiments.Fig13Table(r))
			fmt.Printf("\nFig. %s — optimized layout (%s), hottest objects:\n%s",
				map[string]string{"OLAP1-63": "1", "OLAP8-63": "12"}[r.Workload],
				r.Workload, experiments.LayoutTable(r.Instance, r.Rec.Final, 8))
			fmt.Printf("\nFig. 14 — solver (non-regular) layout (%s):\n%s",
				r.Workload, experiments.LayoutTable(r.Instance, r.Rec.Solver, 8))
		}
		return nil
	})

	run("fig15", func() error {
		res, err := experiments.Consolidation(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 15 — consolidation scenario:")
		fmt.Print(res.Fig15Table())
		fmt.Println("\nFig. 16 — consolidated optimized layout, hottest objects:")
		fmt.Print(res.Fig16Table())
		return nil
	})

	run("fig17", func() error {
		rows, err := experiments.Heterogeneous(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 17 — heterogeneous disk configurations, OLAP8-63:")
		fmt.Print(experiments.Fig17Table(rows))
		return nil
	})

	run("fig18", func() error {
		rows, err := experiments.SSDStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 18 — four disks plus SSD, OLAP8-63:")
		fmt.Print(experiments.Fig18Table(rows))
		return nil
	})

	run("fig19", func() error {
		rows, err := experiments.Timing(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 19 — advisor running time vs. problem size:")
		fmt.Print(experiments.Fig19Table(rows))
		return nil
	})

	run("ablation", func() error {
		rows, err := experiments.Ablation(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Ablation — advisor variants on OLAP1-63, four disks:")
		fmt.Print(experiments.AblationTable(rows))
		return nil
	})

	run("degraded", func() error {
		res, err := experiments.Degraded(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Degraded-mode study — RAID5 reconstruction and failure-aware repair:")
		fmt.Print(experiments.DegradedTable(res))
		return nil
	})

	run("migration", func() error {
		res, err := experiments.Migration(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Online-migration study — throttled deployment and failure evacuation:")
		fmt.Print(experiments.MigrationTable(res))
		return nil
	})

	run("drift", func() error {
		res, err := experiments.Drift(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Drift study — diurnal OLTP->OLAP shift, windowed detection:")
		fmt.Print(experiments.DriftTable(res))
		return nil
	})

	run("autonomic", func() error {
		res, err := experiments.Autonomic(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Autonomic control loop — detect, re-advise, migrate, cool down:")
		fmt.Print(experiments.AutonomicTable(res))
		return nil
	})

	run("chaos", func() error {
		rep, err := experiments.Chaos(cfg, *seeds)
		if err != nil {
			return err
		}
		fmt.Println("Chaos campaign — crash-safe controller under fault injection:")
		fmt.Print(experiments.ChaosTable(rep))
		return nil
	})

	run("fleet", func() error {
		rows, err := experiments.Fleet(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fleet-scale study — sparse pruned transfer search:")
		fmt.Print(experiments.FleetTable(rows))
		return nil
	})

	run("fig20", func() error {
		res, err := experiments.AutoAdminStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 20 / Sec. 6.6 — AutoAdmin comparison:")
		fmt.Print(res.Fig20Table())
		return nil
	})
}
