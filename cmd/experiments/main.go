// Command experiments reproduces the tables and figures of the paper's
// evaluation (Sec. 6) end-to-end: it traces the SQL workloads under the SEE
// baseline on the simulated storage system, fits workload models, calibrates
// target cost models, runs the layout advisor, and replays the workloads
// under every layout the paper compares. The studies of one run share their
// traces and calibrations.
//
// Usage:
//
//	experiments [-run all|<study>] [-quick] [-seed N] [-seeds N]
//	            [-v | -log-level L] [-trace-out solver.jsonl]
//	            [-metrics-out metrics.prom] [-metrics-flush 5s]
//	            [-listen addr] [-listen-hold 30s]
//	            [-drift-events events.jsonl]
//	            [-cpuprofile f] [-memprofile f]
//
// -h lists the studies in the order -run all runs them; an unknown name
// exits 2. fig11 also prints the layout figures (1, 12, 14) and the
// utilization-stage figure (13) derived from the same runs.
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

	"dblayout/internal/control"
	"dblayout/internal/experiments"
	"dblayout/internal/nlp"
	"dblayout/internal/obs"
)

// study is one runnable study: it runs on the shared Config and returns its
// section of the report.
type study struct {
	name string
	run  func(cfg *experiments.Config) (string, error)
}

// section builds a study that runs fn and renders its result under title.
func section[T any](name, title string, fn func(*experiments.Config) (T, error), render func(T) string) study {
	return study{name, func(cfg *experiments.Config) (string, error) {
		res, err := fn(cfg)
		if err != nil {
			return "", err
		}
		return title + render(res), nil
	}}
}

// chaosSeeds is the -seeds flag: the chaos campaign's scenario count.
var chaosSeeds int

// studies are the studies, in the order -run all runs them.
var studies = []study{
	section("fig8", "", experiments.Fig8CostSlice, experiments.Fig8Table),
	section("fig11", "Fig. 11 — workload execution times, homogeneous targets:\n", experiments.Homogeneous, fig11),
	section("fig15", "Fig. 15 — consolidation scenario:\n", experiments.Consolidation,
		func(r *experiments.ConsolidationResult) string {
			return r.Fig15Table() + "\nFig. 16 — consolidated optimized layout, hottest objects:\n" + r.Fig16Table()
		}),
	section("fig17", "Fig. 17 — heterogeneous disk configurations, OLAP8-63:\n", experiments.Heterogeneous, experiments.Fig17Table),
	section("fig18", "Fig. 18 — four disks plus SSD, OLAP8-63:\n", experiments.SSDStudy, experiments.Fig18Table),
	section("fig19", "Fig. 19 — advisor running time vs. problem size:\n", experiments.Timing, experiments.Fig19Table),
	section("ablation", "Ablation — advisor variants on OLAP1-63, four disks:\n", experiments.Ablation, experiments.AblationTable),
	section("degraded", "Degraded-mode study — RAID5 reconstruction and failure-aware repair:\n", experiments.Degraded, experiments.DegradedTable),
	section("migration", "Online-migration study — throttled deployment and failure evacuation:\n", experiments.Migration, experiments.MigrationTable),
	section("drift", "Drift study — diurnal OLTP->OLAP shift, windowed detection:\n", experiments.Drift, experiments.DriftTable),
	section("autonomic", "Autonomic control loop — detect, re-advise, migrate, cool down:\n", experiments.Autonomic, experiments.AutonomicTable),
	section("chaos", "Chaos campaign — crash-safe controller under fault injection:\n",
		func(cfg *experiments.Config) (*control.ChaosCampaignReport, error) {
			return experiments.Chaos(cfg, chaosSeeds)
		},
		experiments.ChaosTable),
	section("fleet", "Fleet-scale study — sparse pruned transfer search:\n", experiments.Fleet, experiments.FleetTable),
	section("fig20", "Fig. 20 / Sec. 6.6 — AutoAdmin comparison:\n", experiments.AutoAdminStudy, (*experiments.AutoAdminResult).Fig20Table),
}

// fig11 renders Fig. 11 and, per workload, the figures derived from the
// same runs: 13, the optimized layout (1 or 12) and the solver layout (14).
func fig11(runs []*experiments.WorkloadRun) string {
	var sb strings.Builder
	sb.WriteString(experiments.Fig11Table(runs))
	for _, r := range runs {
		fmt.Fprintf(&sb, "\nFig. 13 — %s\n%s", r.Workload, experiments.Fig13Table(r))
		fmt.Fprintf(&sb, "\nFig. %s — optimized layout (%s), hottest objects:\n%s",
			map[string]string{"OLAP1-63": "1", "OLAP8-63": "12"}[r.Workload],
			r.Workload, experiments.LayoutTable(r.Instance, r.Rec.Final, 8))
		fmt.Fprintf(&sb, "\nFig. 14 — solver (non-regular) layout (%s):\n%s",
			r.Workload, experiments.LayoutTable(r.Instance, r.Rec.Solver, 8))
	}
	return sb.String()
}

// selectStudies returns the studies -run names, or an error listing the
// valid names.
func selectStudies(which string) ([]study, error) {
	valid := []string{"all"}
	for _, s := range studies {
		if s.name == which {
			return []study{s}, nil
		}
		valid = append(valid, s.name)
	}
	if which == "all" {
		return studies, nil
	}
	return nil, fmt.Errorf("unknown study %q; valid: %s", which, strings.Join(valid, ", "))
}

func main() {
	var names []string
	for _, s := range studies {
		names = append(names, s.name)
	}
	which := flag.String("run", "all", "study to run: all, "+strings.Join(names, ", "))
	quick := flag.Bool("quick", false, "reduced scale (coarse calibration, fewer queries)")
	seed := flag.Int64("seed", 1, "replay and solver seed")
	flag.IntVar(&chaosSeeds, "seeds", 0, "chaos campaign scenario count (0 = default 50)")
	workers := flag.Int("workers", 0, "solver restart parallelism (0 = auto, 1 = serial); results are identical at any worker count")
	driftEvents := flag.String("drift-events", "", "write the drift experiment's detection events as JSON lines to this file")
	var cli obs.CLI
	cli.Register(flag.CommandLine)
	flag.Parse()
	selected, err := selectStudies(*which)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

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

	for _, s := range selected {
		start := time.Now()
		fmt.Printf("=== %s ===\n", strings.ToUpper(s.name))
		out, err := s.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.name, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("(%s completed in %v)\n\n", s.name, time.Since(start).Round(time.Millisecond))
	}
}
