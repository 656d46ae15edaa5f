package migrate

import (
	"testing"

	"dblayout/internal/layout"
	"dblayout/internal/replay"
)

// idleExecute runs an unjournaled one-step migration of a size-byte object
// between two idle disks to completion and reports whether it finished.
func idleExecute(size int64) bool {
	sys := &replay.System{
		Objects: []layout.Object{{Name: "A", Size: size}},
		Devices: []replay.DeviceSpec{replay.Disk15K("d0"), replay.Disk15K("d1")},
	}
	from := layout.New(1, 2)
	from.Set(0, 0, 1)
	to := layout.New(1, 2)
	to.Set(0, 1, 1)
	res, err := Execute(sys, from, to, nil, replay.Options{Seed: 1}, Options{})
	return err == nil && res.Migration.Done
}

// TestExecuteIdleAllocsFlat: the replay-backed copy loop allocates nothing
// per chunk, so an idle migration of twice the chunks allocates no more
// than the shorter one.
func TestExecuteIdleAllocsFlat(t *testing.T) {
	if !idleExecute(64*mib) || !idleExecute(128*mib) {
		t.Fatal("idle migration did not finish")
	}
	short := testing.AllocsPerRun(5, func() { idleExecute(64 * mib) })
	long := testing.AllocsPerRun(5, func() { idleExecute(128 * mib) })
	if long > short {
		t.Fatalf("a 128 MiB idle migration allocates %v times, a 64 MiB one %v: the copy loop allocates per chunk", long, short)
	}
}
