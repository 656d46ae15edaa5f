// Heterogeneous: reproduce the paper's Sec. 6.4 scenario end-to-end on the
// simulated testbed — a TPC-H OLAP workload on a mix of a RAID0 group, a
// single disk, and an SSD — comparing stripe-everything-everywhere against
// the advisor's recommendation by actually replaying the workload.
package main

import (
	"fmt"
	"log"

	"dblayout"
	"dblayout/internal/benchdb"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/replay"
	"dblayout/internal/rubicon"
)

func main() {
	// The system under test: a 2-disk RAID0 group, one standalone 15K
	// disk, and a 16 GB SSD — the kind of accumulated heterogeneity the
	// paper's introduction motivates.
	w := benchdb.OLAP863()
	w.Queries = w.Queries[:21] // one pass over the query set keeps this quick
	sys := &replay.System{
		Objects: w.Catalog.Objects,
		Devices: []replay.DeviceSpec{
			replay.RAID0Disks("raid0x2", 2),
			replay.Disk15K("disk"),
			replay.SSD("ssd", 16<<30),
		},
	}

	// Step 1: run the workload under SEE, fitting workload models online
	// from the block trace (the paper's methodology).
	fmt.Println("replaying OLAP workload under SEE and fitting workload models...")
	see := layout.SEE(len(sys.Objects), len(sys.Devices))
	fitter := rubicon.NewFitter(objectNames(sys), rubicon.Options{ActiveRates: true})
	seeRes, err := replay.RunOLAP(sys, see, w, replay.Options{Seed: 1, Tracer: fitter})
	if err != nil {
		log.Fatal(err)
	}
	workloads, err := fitter.Fit()
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: calibrate cost models per target type and advise.
	fmt.Println("calibrating target models and running the advisor...")
	cache := costmodel.NewCache()
	inst := &layout.Instance{
		Objects:   sys.Objects,
		Targets:   sys.Targets(cache, costmodel.FastGrid()),
		Workloads: workloads,
	}
	// Fig. 4's multi-start loop: solve from the heuristic initial layout
	// and from SEE, and keep the better final layout.
	rec, err := dblayout.Recommend(dblayout.Problem{
		Objects: inst.Objects, Targets: inst.Targets, Workloads: inst.Workloads,
	}, dblayout.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Step 3: replay under the recommended layout.
	optRes, err := replay.RunOLAP(sys, rec.Final, w, replay.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nSEE:       %7.0f s elapsed\n", seeRes.Elapsed)
	fmt.Printf("optimized: %7.0f s elapsed (%.2fx speedup)\n\n", optRes.Elapsed, seeRes.Elapsed/optRes.Elapsed)
	fmt.Println("hottest objects in the recommended layout:")
	printLayout(inst, rec.Final, 8)
}

func objectNames(sys *replay.System) []string {
	out := make([]string, len(sys.Objects))
	for i, o := range sys.Objects {
		out[i] = o.Name
	}
	return out
}
