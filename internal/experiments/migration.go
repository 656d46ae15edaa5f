package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"dblayout/internal/benchdb"
	"dblayout/internal/core"
	"dblayout/internal/layout"
	"dblayout/internal/migrate"
	"dblayout/internal/nlp"
	"dblayout/internal/replay"
	"dblayout/internal/storage"
)

// MigrationScenario is one online-migration run at a given copy throttle,
// interleaved with the OLAP1-63 foreground workload.
type MigrationScenario struct {
	// Name labels the throttle setting.
	Name string
	// RateMiB is the copy throttle in MiB/s (0 = unthrottled).
	RateMiB float64
	// Elapsed is the total simulated time until both the foreground
	// workload and the migration finished.
	Elapsed float64
	// MigrationElapsed is the simulated time the copy stream took.
	MigrationElapsed float64
	// CopiedMiB is the committed payload volume.
	CopiedMiB float64
	// EffectiveMiB is CopiedMiB / MigrationElapsed — the achieved copy
	// rate after throttling and queue-yielding to foreground traffic.
	EffectiveMiB float64
	// JournalRecords counts the write-ahead records the run produced.
	JournalRecords int
}

// MigrationResult reports the online-migration study: deploying the
// advisor's recommendation on a live system with the crash-safe engine, at
// several throttle settings, plus a destination-failure scenario that
// aborts, replans around the dead disk, and evacuates it in reconstruction
// mode.
type MigrationResult struct {
	// Moves / Steps / Staged describe the SEE -> optimized migration:
	// plan moves, executable script steps, and how many moves had to be
	// staged through scratch space to break capacity cycles.
	Moves, Steps, Staged int
	// ScratchTarget and ScratchMiB describe the scratch reservation.
	ScratchTarget string
	ScratchMiB    float64
	// PlanMiB is the payload volume the plan moves.
	PlanMiB float64
	// BaselineElapsed is the OLAP run under SEE with no migration.
	BaselineElapsed float64
	// PostElapsed is the OLAP run under the optimized layout after the
	// migration completed.
	PostElapsed float64
	// Scenarios are the throttled online runs.
	Scenarios []MigrationScenario

	// FaultTarget is the destination disk failed mid-copy, at simulated
	// time FaultAt.
	FaultTarget string
	FaultAt     float64
	// FaultCommitted counts the script steps that had committed before
	// the abort (of FaultSteps total).
	FaultCommitted, FaultSteps int
	// RepairMoves and RepairMiB describe the replanned evacuation.
	RepairMoves int
	RepairMiB   float64
	// ReconstructedMiB is the volume written in reconstruction mode (the
	// dead disk could not be read).
	ReconstructedMiB float64
	// RepairElapsed is the simulated time of the evacuation run.
	RepairElapsed float64
	// RepairTime is the wall-clock time the replanning took.
	RepairTime time.Duration
}

// migrationRates are the studied copy throttles in MiB/s (0 = unthrottled).
var migrationRates = []float64{0, 32, 8}

// Migration runs the online-migration study on the four-disk system under
// OLAP1-63:
//
//  1. trace + fit + advise (the normal pipeline) to get the optimized
//     layout, with SEE as the layout the data occupies today;
//  2. execute the SEE -> optimized migration online while the workload
//     replays, at each throttle in migrationRates, journaling every move;
//  3. fail the destination disk of the final script step mid-copy: the
//     engine rolls back the in-flight move, aborts into a consistent
//     layout, RecommendRepair replans around the dead disk, and a
//     reconstruction-mode execution evacuates it.
func Migration(cfg *Config) (*MigrationResult, error) {
	w := cfg.trimOLAP(benchdb.OLAP163())
	objects := w.Catalog.Objects
	sys := fourDisks(objects)
	see := layout.SEE(len(objects), len(sys.Devices))

	base, inst, err := cfg.traceAndFit(sys, see, w)
	if err != nil {
		return nil, fmt.Errorf("experiments: migration trace: %w", err)
	}
	rec, err := cfg.advise(inst)
	if err != nil {
		return nil, fmt.Errorf("experiments: migration advise: %w", err)
	}
	sizes, capacities := inst.Sizes(), inst.Capacities()
	scratch := migrate.AutoScratch(see, rec.Final, sizes, capacities)

	out := &MigrationResult{BaselineElapsed: base.Elapsed}
	if scratch.Bytes > 0 {
		out.ScratchTarget = inst.Targets[scratch.Target].Name
		out.ScratchMiB = float64(scratch.Bytes) / (1 << 20)
	}

	// Online migration under foreground OLAP traffic at each throttle.
	var script []migrate.Step
	for _, rate := range migrationRates {
		name := "unthrottled"
		if rate > 0 {
			name = fmt.Sprintf("%.0f MiB/s", rate)
		}
		var journal bytes.Buffer
		eres, err := migrate.Execute(fourDisks(objects), see, rec.Final, w,
			replay.Options{Seed: cfg.Seed, Metrics: cfg.Metrics, Logger: cfg.Logger},
			migrate.Options{
				BytesPerSec: rate * (1 << 20),
				Scratch:     scratch,
				Journal:     &journal,
				Metrics:     cfg.Metrics,
			})
		if err != nil {
			return nil, fmt.Errorf("experiments: migration (%s): %w", name, err)
		}
		m := eres.Migration
		if !m.Done {
			return nil, fmt.Errorf("experiments: migration (%s) did not finish", name)
		}
		if script == nil {
			script = eres.Script
			out.Moves, out.Steps = len(eres.Plan), len(eres.Script)
			for _, s := range eres.Script {
				if s.Kind == migrate.StepStageIn {
					out.Staged++
				}
			}
			out.PlanMiB = float64(layout.PlanBytes(eres.Plan)) / (1 << 20)
		}
		sc := MigrationScenario{
			Name:             name,
			RateMiB:          rate,
			Elapsed:          eres.Replay.Elapsed,
			MigrationElapsed: m.Elapsed,
			CopiedMiB:        float64(m.CommittedBytes) / (1 << 20),
			JournalRecords:   m.JournalRecords,
		}
		if m.Elapsed > 0 {
			sc.EffectiveMiB = sc.CopiedMiB / m.Elapsed
		}
		out.Scenarios = append(out.Scenarios, sc)
	}
	if len(script) == 0 {
		return nil, fmt.Errorf("experiments: recommendation equals SEE; nothing to migrate")
	}

	// The optimized layout after migration, with the system to itself.
	post, err := replayOLAP(fourDisks(objects), rec.Final, w, cfg)
	if err != nil {
		return nil, err
	}
	out.PostElapsed = post.Elapsed

	// Destination-failure scenario: kill the destination of the final
	// script step partway through the unthrottled copy, so at least that
	// step is still uncommitted when the fault hits.
	fault := script[len(script)-1].Move.To
	out.FaultTarget = inst.Targets[fault].Name
	out.FaultAt = 0.4 * out.Scenarios[0].MigrationElapsed
	fsys := fourDisks(objects)
	fsys.Devices[fault].Faults = &storage.FaultSchedule{Fail: &storage.FailFault{At: out.FaultAt}}
	var fjournal bytes.Buffer
	fres, err := migrate.Execute(fsys, see, rec.Final, w,
		replay.Options{Seed: cfg.Seed, Logger: cfg.Logger},
		migrate.Options{Scratch: scratch, Journal: &fjournal})
	if !errors.Is(err, migrate.ErrMigrationAborted) {
		return nil, fmt.Errorf("experiments: fault scenario: got %v, want migration abort", err)
	}
	m := fres.Migration
	out.FaultCommitted, out.FaultSteps = m.Committed, len(fres.Script)

	// Replan around the dead disk and evacuate it in reconstruction mode.
	start := time.Now()
	rep, err := core.RecommendRepair(context.Background(), inst, m.Layout, m.FailedTargets,
		core.Options{NLP: nlp.Options{Seed: cfg.Seed, Trace: cfg.Trace, Workers: cfg.Workers}, Logger: cfg.Logger})
	if err != nil {
		return nil, fmt.Errorf("experiments: migration replan: %w", err)
	}
	out.RepairTime = time.Since(start)
	out.RepairMoves = len(rep.Plan)
	out.RepairMiB = float64(rep.PlanBytes) / (1 << 20)

	rsys := fourDisks(objects)
	rsys.Devices[fault].Faults = &storage.FaultSchedule{Fail: &storage.FailFault{At: 0}}
	// Neither the aborted mid-migration layout nor a repair of it needs to
	// be regular, and the LVM mapper only implements regular layouts. The
	// evacuation runs idle — no foreground I/O consults the mapper — so any
	// regular stand-in validates the run.
	mapper := rep.Layout
	if !mapper.IsRegular() {
		mapper = see
	}
	var rjournal bytes.Buffer
	rres, err := migrate.Execute(rsys, m.Layout, rep.Layout, nil,
		replay.Options{Seed: cfg.Seed, Logger: cfg.Logger},
		migrate.Options{
			Scratch:       migrate.AutoScratch(m.Layout, rep.Layout, sizes, capacities, m.FailedTargets...),
			Journal:       &rjournal,
			FailedSources: m.FailedTargets,
			MapperLayout:  mapper,
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: evacuation: %w", err)
	}
	if !rres.Migration.Done {
		return nil, fmt.Errorf("experiments: evacuation did not finish")
	}
	out.ReconstructedMiB = float64(rres.Migration.ReconstructedBytes) / (1 << 20)
	out.RepairElapsed = rres.Migration.Elapsed
	return out, nil
}

// MigrationTable renders the online-migration study.
func MigrationTable(r *MigrationResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "migration: %d moves -> %d steps (%d staged", r.Moves, r.Steps, r.Staged)
	if r.ScratchTarget != "" {
		fmt.Fprintf(&sb, " through %.0f MiB scratch on %s", r.ScratchMiB, r.ScratchTarget)
	}
	fmt.Fprintf(&sb, "), %.0f MiB payload\n\n", r.PlanMiB)

	fmt.Fprintf(&sb, "%-14s %12s %12s %12s %10s %9s\n",
		"Copy throttle", "Total(s)", "Copy(s)", "Copied(MiB)", "Eff(MiB/s)", "Journal")
	fmt.Fprintf(&sb, "%-14s %12.0f %12s %12s %10s %9s\n",
		"none (SEE)", r.BaselineElapsed, "-", "-", "-", "-")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&sb, "%-14s %12.0f %12.0f %12.0f %10.1f %9d\n",
			s.Name, s.Elapsed, s.MigrationElapsed, s.CopiedMiB, s.EffectiveMiB, s.JournalRecords)
	}
	fmt.Fprintf(&sb, "%-14s %12.0f %12s %12s %10s %9s\n",
		"done (opt)", r.PostElapsed, "-", "-", "-", "-")

	fmt.Fprintf(&sb, "\nfault: %s failed at t=%.0fs with %d/%d steps committed;\n",
		r.FaultTarget, r.FaultAt, r.FaultCommitted, r.FaultSteps)
	fmt.Fprintf(&sb, "repair replanned %d moves (%.0f MiB) in %v, evacuated in %.0f simulated s\n",
		r.RepairMoves, r.RepairMiB, r.RepairTime.Round(time.Millisecond), r.RepairElapsed)
	fmt.Fprintf(&sb, "reconstruction-mode writes: %.0f MiB (dead disk unreadable)\n", r.ReconstructedMiB)
	return sb.String()
}
