package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dblayout"
	"dblayout/internal/benchdb"
	"dblayout/internal/core"
	"dblayout/internal/replay"
	"dblayout/internal/storage"
)

// DegradedResult reports the degraded-mode study: how the optimized layout
// behaves when storage fails underneath it, and what the failure-aware
// repair recovers.
type DegradedResult struct {
	// Healthy is the elapsed time of the optimized layout with all
	// devices healthy.
	Healthy float64
	// DegradedMember is the elapsed time of the same layout after one
	// RAID5 member dies at t=0: every read of its units pays
	// reconstruction reads on the surviving members.
	DegradedMember float64
	// ReconstructReads counts the extra member reads the degraded RAID5
	// group issued during that replay.
	ReconstructReads int64

	// FailedTarget is the whole storage target subsequently failed for
	// the repair study (the target holding the most bytes, so the repair
	// is forced to move data).
	FailedTarget string
	// Repair is the failure-aware re-recommendation: a layout over the
	// surviving targets plus the migration plan to reach it.
	Repair *core.Repair
	// RepairTime is the wall-clock time RecommendRepair took.
	RepairTime time.Duration
	// Repaired is the elapsed time of the repaired layout replayed on the
	// system with the failed target dead — it must match a healthy replay
	// because the repaired layout never touches the dead device.
	Repaired float64
}

// Degraded runs the failure study on a 3-disk RAID5 group plus two
// standalone disks under OLAP1-63:
//
//  1. trace + fit + advise on the healthy system (the normal pipeline);
//  2. replay the optimized layout healthy, then with one RAID5 member
//     failed from the start, counting reconstruction reads;
//  3. fail the most-loaded storage target outright, run RecommendRepair,
//     and replay the repaired layout on the degraded system.
func Degraded(cfg *Config) (*DegradedResult, error) {
	devices := func() []replay.DeviceSpec {
		return []replay.DeviceSpec{
			replay.RAID5Disks("raid5", 3),
			replay.Disk15K("disk3"),
			replay.Disk15K("disk4"),
		}
	}
	s, err := cfg.scenario(benchdb.OLAP163(), nil, devices()...)
	if err != nil {
		return nil, fmt.Errorf("experiments: degraded: %w", err)
	}
	inst := s.inst
	rec, err := cfg.advise(inst)
	if err != nil {
		return nil, fmt.Errorf("experiments: degraded advise: %w", err)
	}

	out := &DegradedResult{}
	if out.Healthy, err = s.elapsed(cfg, rec.Final); err != nil {
		return nil, err
	}

	// Replay the same layout with RAID5 member 0 dead from the start.
	degSys := &replay.System{Objects: inst.Objects, Devices: devices()}
	degSys.Devices[0].RAID.MemberFaults = map[int]storage.FaultSchedule{
		0: {Fail: &storage.FailFault{At: 0}},
	}
	degRes, _, err := s.run(cfg, degSys, rec.Final, nil)
	if err != nil {
		return nil, err
	}
	out.DegradedMember = degRes.Elapsed
	out.ReconstructReads = degRes.DeviceStats[0].ReconstructReads

	// Fail the target carrying the most data and re-solve around it.
	sizes := inst.Sizes()
	failed, most := 0, -1.0
	for j := range inst.Targets {
		if b := rec.Final.TargetBytes(j, sizes); b > most {
			failed, most = j, b
		}
	}
	out.FailedTarget = inst.Targets[failed].Name
	start := time.Now()
	rep, err := dblayout.RecommendRepair(context.Background(), problem(inst), rec.Final, []int{failed}, cfg.options())
	if err != nil {
		return nil, fmt.Errorf("experiments: repair: %w", err)
	}
	out.RepairTime = time.Since(start)
	out.Repair = rep

	// Replay the repaired layout with the failed target actually dead:
	// nothing may touch it.
	repSys := &replay.System{Objects: inst.Objects, Devices: devices()}
	if r := repSys.Devices[failed].RAID; r != nil {
		r.MemberFaults = map[int]storage.FaultSchedule{}
		for i := 0; i < r.Members; i++ {
			r.MemberFaults[i] = storage.FaultSchedule{Fail: &storage.FailFault{At: 0}}
		}
	} else {
		repSys.Devices[failed].Faults = &storage.FaultSchedule{Fail: &storage.FailFault{At: 0}}
	}
	repRes, _, err := s.run(cfg, repSys, rep.Layout, nil)
	if err != nil {
		return nil, err
	}
	out.Repaired = repRes.Elapsed
	return out, nil
}

// DegradedTable renders the degraded-mode study.
func DegradedTable(r *DegradedResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %10s\n", "Scenario", "Elapsed(s)")
	fmt.Fprintf(&sb, "%-34s %10.0f\n", "optimized, healthy", r.Healthy)
	fmt.Fprintf(&sb, "%-34s %10.0f   (%d reconstruction reads)\n",
		"optimized, RAID5 member dead", r.DegradedMember, r.ReconstructReads)
	fmt.Fprintf(&sb, "%-34s %10.0f\n",
		fmt.Sprintf("repaired, %s failed", r.FailedTarget), r.Repaired)
	fmt.Fprintf(&sb, "\nrepair: %d objects moved, %d-step plan, %.1f MB migrated, objective %.3f, in %v\n",
		len(r.Repair.Affected), len(r.Repair.Plan), float64(r.Repair.PlanBytes)/(1<<20),
		r.Repair.Objective, r.RepairTime.Round(time.Millisecond))
	if r.Repair.Degraded {
		fmt.Fprintf(&sb, "repair degraded: %v\n", r.Repair.Degradation)
	}
	return sb.String()
}
