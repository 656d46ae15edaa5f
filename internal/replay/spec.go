// Package replay executes SQL-level workloads (package benchdb) against the
// storage simulator (package storage) under a concrete, regular layout. It
// plays the role of the paper's physical testbed: it produces the elapsed
// workload times and tpmC rates of the evaluation tables, and the I/O traces
// from which workload models are fitted.
package replay

import (
	"fmt"

	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/storage"
)

// RAIDSpec describes a RAID group target.
type RAIDSpec struct {
	Members int
	Member  storage.DiskConfig
	Unit    int64 // stripe unit; 0 selects storage.DefaultStripeUnit
	// Level selects the RAID level: 0 (striping, the paper's PERC setup)
	// or 5 (rotating parity with degraded-mode reconstruction).
	Level int
	// MemberFaults optionally injects a fault schedule into individual
	// members, keyed by member index. Use it to replay degraded-mode
	// scenarios (a dead disk inside a healthy-looking group).
	MemberFaults map[int]storage.FaultSchedule
}

// DeviceSpec declares one storage target of the system under test. Exactly
// one of Disk, SSD, RAID must be set.
type DeviceSpec struct {
	Name string
	Disk *storage.DiskConfig
	SSD  *storage.SSDConfig
	RAID *RAIDSpec
	// Faults optionally injects a deterministic fault schedule into the
	// device (Disk and SSD targets; for RAID groups use
	// RAIDSpec.MemberFaults — the group itself never fails, its members
	// do).
	Faults *storage.FaultSchedule
}

// Disk15K returns a single-15K-disk target spec, the paper's basic target.
func Disk15K(name string) DeviceSpec {
	cfg := storage.Disk15KConfig()
	return DeviceSpec{Name: name, Disk: &cfg}
}

// Disk7200 returns a single-7200-RPM-disk target spec.
func Disk7200(name string) DeviceSpec {
	cfg := storage.Disk7200Config()
	return DeviceSpec{Name: name, Disk: &cfg}
}

// SSD returns an SSD target spec with the given capacity (0 = full 32 GB).
func SSD(name string, capacity int64) DeviceSpec {
	cfg := storage.SSD32Config()
	if capacity > 0 {
		cfg.CapacityBytes = capacity
	}
	return DeviceSpec{Name: name, SSD: &cfg}
}

// RAID0Disks returns a RAID0 group of n 15K disks, as built by the paper's
// PERC controller for the heterogeneous configurations.
func RAID0Disks(name string, n int) DeviceSpec {
	return DeviceSpec{Name: name, RAID: &RAIDSpec{Members: n, Member: storage.Disk15KConfig()}}
}

// RAID5Disks returns a RAID5 group of n 15K disks (n >= 3), for the
// degraded-mode experiments.
func RAID5Disks(name string, n int) DeviceSpec {
	return DeviceSpec{Name: name, RAID: &RAIDSpec{Members: n, Member: storage.Disk15KConfig(), Level: 5}}
}

// builtins is the table of built-in device types: the names a problem
// document's target gives as its "model", each at its default capacity.
var builtins = map[string]func(name string) DeviceSpec{
	"disk15k":  Disk15K,
	"disk7200": Disk7200,
	"ssd":      func(name string) DeviceSpec { return SSD(name, 0) },
}

// Builtin returns the built-in device type typ as a target named name. A
// positive capacity replaces the type's default capacity.
func Builtin(typ, name string, capacity int64) (DeviceSpec, error) {
	mk, ok := builtins[typ]
	if !ok {
		return DeviceSpec{}, fmt.Errorf("unknown model %q (want disk15k, disk7200 or ssd)", typ)
	}
	s := mk(name)
	if capacity > 0 {
		if s.Disk != nil {
			s.Disk.CapacityBytes = capacity
		} else {
			s.SSD.CapacityBytes = capacity
		}
	}
	return s, nil
}

// CalibrateBuiltin calibrates the cost model of the built-in device type typ
// on grid (Sec. 5.2.2). The model is named after the type.
func CalibrateBuiltin(typ string, grid costmodel.Grid) (*costmodel.Model, error) {
	s, err := Builtin(typ, typ, 0)
	if err != nil {
		return nil, err
	}
	return costmodel.Calibrate(typ, s.Factory(), grid), nil
}

// Validate checks the spec declares exactly one device type.
func (s DeviceSpec) Validate() error {
	n := 0
	if s.Disk != nil {
		n++
	}
	if s.SSD != nil {
		n++
	}
	if s.RAID != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("replay: device %q declares %d device types, want 1", s.Name, n)
	}
	if r := s.RAID; r != nil {
		if r.Members <= 0 {
			return fmt.Errorf("replay: device %q: RAID with %d members", s.Name, r.Members)
		}
		switch r.Level {
		case 0:
			// striping, no redundancy
		case 5:
			if r.Members < 3 {
				return fmt.Errorf("replay: device %q: RAID5 needs at least 3 members, got %d", s.Name, r.Members)
			}
		default:
			return fmt.Errorf("replay: device %q: unsupported RAID level %d", s.Name, r.Level)
		}
		for i, f := range r.MemberFaults {
			if i < 0 || i >= r.Members {
				return fmt.Errorf("replay: device %q: fault schedule for member %d outside [0,%d)", s.Name, i, r.Members)
			}
			if err := f.Validate(); err != nil {
				return fmt.Errorf("replay: device %q member %d: %w", s.Name, i, err)
			}
		}
	}
	if s.Faults != nil {
		if s.RAID != nil {
			return fmt.Errorf("replay: device %q: inject faults into RAID members, not the group", s.Name)
		}
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("replay: device %q: %w", s.Name, err)
		}
	}
	return nil
}

// Capacity returns the target's capacity without instantiating it.
func (s DeviceSpec) Capacity() int64 {
	switch {
	case s.Disk != nil:
		return s.Disk.CapacityBytes
	case s.SSD != nil:
		return s.SSD.CapacityBytes
	case s.RAID != nil:
		members := int64(s.RAID.Members)
		if s.RAID.Level == 5 {
			members-- // one member's worth of each stripe row is parity
		}
		return s.RAID.Member.CapacityBytes * members
	}
	return 0
}

// ModelKey identifies the target's performance class for cost-model
// calibration caching. Targets with the same key share a calibrated model.
func (s DeviceSpec) ModelKey() string {
	switch {
	case s.Disk != nil:
		return fmt.Sprintf("disk-rpm%.0fms-%.0fMBps", s.Disk.AvgSeek*1e3, s.Disk.TransferRate/(1<<20))
	case s.SSD != nil:
		return fmt.Sprintf("ssd-%.2fms-%.0fMBps", s.SSD.ReadLatency*1e3, s.SSD.ReadRate/(1<<20))
	case s.RAID != nil:
		return fmt.Sprintf("raid%dx%d-%.0fms-%.0fMBps", s.RAID.Level, s.RAID.Members,
			s.RAID.Member.AvgSeek*1e3, s.RAID.Member.TransferRate/(1<<20))
	}
	return "invalid"
}

// Build instantiates the target on the engine, applying any fault schedules.
func (s DeviceSpec) Build(e *storage.Engine) storage.Device {
	inject := func(d storage.Device, f *storage.FaultSchedule) storage.Device {
		if f != nil {
			// Validate() vetted the schedule; a failure here is a spec
			// that skipped validation.
			if err := d.(storage.FaultInjector).InjectFaults(*f); err != nil {
				panic(fmt.Sprintf("replay: device %q: %v", d.Name(), err))
			}
		}
		return d
	}
	switch {
	case s.Disk != nil:
		return inject(storage.NewDisk(e, s.Name, *s.Disk), s.Faults)
	case s.SSD != nil:
		return inject(storage.NewSSD(e, s.Name, *s.SSD), s.Faults)
	case s.RAID != nil:
		unit := s.RAID.Unit
		if unit <= 0 {
			unit = storage.DefaultStripeUnit
		}
		members := make([]storage.Device, s.RAID.Members)
		for i := range members {
			members[i] = storage.NewDisk(e, fmt.Sprintf("%s.m%d", s.Name, i), s.RAID.Member)
			if f, ok := s.RAID.MemberFaults[i]; ok {
				inject(members[i], &f)
			}
		}
		if s.RAID.Level == 5 {
			return storage.NewRAID5(e, s.Name, unit, members...)
		}
		return storage.NewRAID0(e, s.Name, unit, members...)
	}
	panic("replay: invalid device spec")
}

// Factory returns a costmodel.TargetFactory building fresh instances of this
// target type for calibration.
func (s DeviceSpec) Factory() costmodel.TargetFactory {
	return func(e *storage.Engine) storage.Device { return s.Build(e) }
}

// System is the machine under test: the merged database object list and the
// storage targets.
type System struct {
	Objects []layout.Object
	Devices []DeviceSpec
	// StripeSize is the LVM stripe size (default layout.DefaultStripeSize).
	StripeSize int64
}

// Validate checks the system description.
func (sys *System) Validate() error {
	if len(sys.Objects) == 0 || len(sys.Devices) == 0 {
		return fmt.Errorf("replay: system needs objects and devices")
	}
	seen := map[string]bool{}
	for _, o := range sys.Objects {
		if o.Size <= 0 {
			return fmt.Errorf("replay: object %q has size %d", o.Name, o.Size)
		}
		if seen[o.Name] {
			return fmt.Errorf("replay: duplicate object %q", o.Name)
		}
		seen[o.Name] = true
	}
	for _, d := range sys.Devices {
		if err := d.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (sys *System) stripeSize() int64 {
	if sys.StripeSize > 0 {
		return sys.StripeSize
	}
	return layout.DefaultStripeSize
}

// objectIndex builds the name -> global index map.
func (sys *System) objectIndex() map[string]int {
	m := make(map[string]int, len(sys.Objects))
	for i, o := range sys.Objects {
		m[o.Name] = i
	}
	return m
}

// Targets builds the layout.Target list for the advisor, attaching
// calibrated cost models from the cache.
func (sys *System) Targets(cache *costmodel.Cache, grid costmodel.Grid) []*layout.Target {
	ts := make([]*layout.Target, len(sys.Devices))
	for j, d := range sys.Devices {
		ts[j] = &layout.Target{
			Name:     d.Name,
			Capacity: d.Capacity(),
			Model:    cache.Get(d.ModelKey(), d.Factory(), grid),
		}
	}
	return ts
}
