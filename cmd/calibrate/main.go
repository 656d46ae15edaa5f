// Command calibrate builds a black-box cost model for one of the built-in
// simulated device types by running the paper's calibration procedure
// (Sec. 5.2.2): controlled workloads sweeping request size, run count and
// contention, tabulating the measured per-request service costs.
//
// Usage:
//
//	calibrate -device disk15k|disk7200|ssd|raid0xN [-o model.json] [-fast]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dblayout/internal/costmodel"
	"dblayout/internal/replay"
)

func run() error {
	device := flag.String("device", "disk15k", "device type to calibrate")
	out := flag.String("o", "", "output file (default stdout)")
	fast := flag.Bool("fast", false, "coarse calibration grid")
	flag.Parse()

	spec, err := replay.Builtin(*device, *device, 0)
	if n, ok := strings.CutPrefix(*device, "raid0x"); ok {
		members, _ := strconv.Atoi(n)
		if members < 1 {
			return fmt.Errorf("bad RAID member count in %q", *device)
		}
		spec, err = replay.RAID0Disks(*device, members), nil
	}
	if err != nil {
		return fmt.Errorf("%w, or raid0xN", err)
	}
	grid := costmodel.DefaultGrid()
	if *fast {
		grid = costmodel.FastGrid()
	}

	fmt.Fprintf(os.Stderr, "calibrating %s (%d sizes x %d run counts x %d contention levels)...\n",
		*device, len(grid.Sizes), len(grid.RunCounts), len(grid.Competitors))
	m := costmodel.Calibrate(*device, spec.Factory(), grid)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return m.Save(w)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}
