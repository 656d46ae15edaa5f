package replay

import (
	"testing"

	"dblayout/internal/benchdb"
	"dblayout/internal/layout"
)

// TestReplayAllocsPerRequest: a replay's requests, completions and stream
// refills allocate nothing per request, so a whole OLAP1-21 replay under SEE
// allocates fewer than 0.1 times per simulated request. What remains is the
// run's set-up: the engine, devices, histograms and per-query streams.
func TestReplayAllocsPerRequest(t *testing.T) {
	w := benchdb.OLAP121()
	sys := fourDisks(w.Catalog)
	see := layout.SEE(len(sys.Objects), len(sys.Devices))
	var requests int64
	allocs := testing.AllocsPerRun(1, func() {
		res, err := RunOLAP(sys, see, w, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		requests = res.Requests
	})
	if perReq := allocs / float64(requests); perReq >= 0.1 {
		t.Fatalf("an OLAP1-21 replay allocates %v times for %d requests (%.3f per request), want < 0.1", allocs, requests, perReq)
	}
}
