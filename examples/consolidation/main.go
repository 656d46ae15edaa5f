// Consolidation: two database instances — a TPC-H reporting database and a
// TPC-C transaction-processing database — share the same four disks (the
// paper's Sec. 6.3 scenario). The advisor lays out all forty objects
// together so the OLAP scans stop destroying the OLTP working set's targets
// and vice versa.
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
	olap := benchdb.OLAP121()
	olap.Queries = olap.Queries[:10] // keep the example brisk
	oltp := benchdb.OLTP()
	objects := append(append([]layout.Object{}, olap.Catalog.Objects...), oltp.Catalog.Objects...)
	sys := &replay.System{
		Objects: objects,
		Devices: []replay.DeviceSpec{
			replay.Disk15K("disk0"), replay.Disk15K("disk1"),
			replay.Disk15K("disk2"), replay.Disk15K("disk3"),
		},
	}
	names := make([]string, len(objects))
	for i, o := range objects {
		names[i] = o.Name
	}

	fmt.Println("running the consolidated workloads under SEE (tracing)...")
	see := layout.SEE(len(objects), len(sys.Devices))
	fitter := rubicon.NewFitter(names, rubicon.Options{})
	seeOLAP, seeOLTP, err := replay.RunConsolidated(sys, see, olap, oltp, 60,
		replay.Options{Seed: 1, Tracer: fitter})
	if err != nil {
		log.Fatal(err)
	}
	workloads, err := fitter.Fit()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("advising...")
	// Fig. 4's multi-start loop: solve from the heuristic initial layout
	// and from SEE, and keep the better final layout.
	rec, err := dblayout.Recommend(dblayout.Problem{
		Objects:   objects,
		Targets:   sys.Targets(costmodel.NewCache(), costmodel.FastGrid()),
		Workloads: workloads,
	}, dblayout.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	optOLAP, optOLTP, err := replay.RunConsolidated(sys, rec.Final, olap, oltp, 60,
		replay.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-12s %14s %14s\n", "", "SEE", "optimized")
	fmt.Printf("%-12s %11.0f s %11.0f s  (%.2fx)\n", "OLAP",
		seeOLAP.Elapsed, optOLAP.Elapsed, seeOLAP.Elapsed/optOLAP.Elapsed)
	fmt.Printf("%-12s %9.0f tpmC %9.0f tpmC  (%.2fx)\n", "OLTP",
		seeOLTP.TpmC, optOLTP.TpmC, optOLTP.TpmC/seeOLTP.TpmC)
}
