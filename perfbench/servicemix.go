package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"dblayout"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/server"
	"dblayout/internal/storage"
)

// service-mix: the multi-tenant daemon in process, driven through
// server.New(...).Handler() with httptest requests and no sockets, from one
// thread in a closed loop. Two logical clients each own their own small
// tenants (4–12 objects on 4 targets with an inline calibrated model), so no
// two clients share mutable state and every version, cache hit and answer
// repeats exactly. Each client's request sequence belongs to the data set;
// --seed interleaves the two sequences, which changes the order the daemon
// sees but no request's answer. The mix is mostly reads — advise requests
// that hit the cache, GET tenant, healthz — with writes beside them:
// workload uploads, which bump the version and force the next advise to
// solve, and small trace uploads, half switching a tenant to its other
// trace (a fit-cache miss) and half repeating it (a hit). Set-up advises
// every (tenant, seed) once, so the advise cache is warm; before each round
// the tenants are deleted, uploaded and warmed again, so every round starts
// from the same daemon state.
//
// One driving thread, not one per client: on a 2-vCPU host two driving
// threads plus the daemon's solver and the garbage collector measure the
// scheduler more than the daemon, and a client's request could wait behind
// the other client's solve by chance.
const (
	svcClients = 2
	svcTenants = 16 // per client
	svcTargets = 4
)

// Request mix. Every svcWriteEvery-th op of a client is a write, cycling
// through a workload upload to a random tenant, then a trace upload that
// switches another tenant to its other trace (a fit-cache miss), then a
// repeat of that upload (a hit). The other ops are reads: advise, GET tenant
// and healthz.
//
// The ratios are assumptions: no measured daemon traffic exists. The read
// split favours advise because advising is the daemon's purpose. The write
// share sets the advise-miss rate (a write bumps the tenant's version, so its
// next advise per seed solves), and one solve costs as much as about a
// thousand cached reads. One write in two thousand requests keeps the
// daemon's solves and fits a minority of the op time (about a third in a
// traced run; at one in a hundred they took four fifths), so the server
// layer does most of the work.
const (
	svcWriteEvery = 2000
	pctAdvise     = 60
	pctGet        = 25 // the remaining reads are healthz
)

type svcTenant struct {
	id      string
	p       dblayout.Problem // workloads unset; they change with versions
	doc     []byte
	traces  [2][]byte
	fitted  [2]*dblayout.WorkloadSet // the traces fitted as the daemon fits them
	uploads [2]*dblayout.WorkloadSet
	bodies  [2][]byte // workload-upload bodies
	current *dblayout.Layout
	total   int64

	versions map[int64]*dblayout.WorkloadSet
}

type svcOp struct {
	kind   byte // 'a' advise, 'g' get, 'h' healthz, 'w' workloads, 't' trace
	tenant int
	seed   int64 // advise seed
	which  int   // trace or workload set
}

type svcAnswer struct {
	obj  float64
	rows [][]float64
}

type svcClient struct {
	tenants []*svcTenant
	seq     []svcOp
	answers map[svcKey]svcAnswer // the first answer per (tenant, version, seed)
}

type svcKey struct {
	tenant  int
	version int64
	seed    int64
}

type serviceMix struct {
	cfg     config
	tr      *tracer
	srv     *server.Server
	h       http.Handler
	clients []*svcClient
	order   []int            // the client sending each timed request
	base    map[string]int64 // daemon counters when timing started
}

func buildServiceMix(cfg config, tr *tracer) (workload, error) {
	srv, err := server.New(server.Options{Workers: 1, Logger: tr.logger()})
	if err != nil {
		return nil, err
	}
	w := &serviceMix{cfg: cfg, tr: tr, srv: srv, h: srv.Handler()}
	model := calibrateFast(tr)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		srv.Close()
		return nil, err
	}
	modelJSON := json.RawMessage(buf.Bytes())

	perClient := (cfg.ops + svcClients - 1) / svcClients
	for c := 0; c < svcClients; c++ {
		cl := &svcClient{answers: map[svcKey]svcAnswer{}}
		data := rand.New(rand.NewSource(datasetSeed + int64(c)))
		for k := 0; k < svcTenants; k++ {
			t, err := newSvcTenant(fmt.Sprintf("c%dt%02d", c, k), data, model, modelJSON)
			if err != nil {
				srv.Close()
				return nil, err
			}
			cl.tenants = append(cl.tenants, t)
		}
		cl.seq = svcSequence(data, svcTenants, perClient)
		w.clients = append(w.clients, cl)
		for k := 0; k < perClient; k++ {
			w.order = append(w.order, c)
		}
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(w.order), func(a, b int) {
		w.order[a], w.order[b] = w.order[b], w.order[a]
	})
	if err := w.install(); err != nil {
		srv.Close()
		return nil, err
	}
	if tr != nil {
		tr.takePhases()
	}
	return w, nil
}

// reset re-creates every tenant as set-up left it.
func (w *serviceMix) reset() error { return w.install() }

// install uploads every tenant's set-up document, replacing the tenant if
// it exists, and warms the advise cache with one advise per (tenant, seed).
// A re-created tenant starts again at version 1 with empty caches.
func (w *serviceMix) install() error {
	for _, cl := range w.clients {
		for _, t := range cl.tenants {
			if code, body := w.request("DELETE", "/v1/tenants/"+t.id, nil); code != http.StatusOK && code != http.StatusNotFound {
				return fmt.Errorf("DELETE tenant %s: %d %s", t.id, code, body)
			}
			code, body := w.request("PUT", "/v1/tenants/"+t.id, t.doc)
			if code != http.StatusOK {
				return fmt.Errorf("PUT tenant %s: %d %s", t.id, code, body)
			}
			var resp struct{ Version int64 }
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			t.versions = map[int64]*dblayout.WorkloadSet{resp.Version: t.uploads[0]}
		}
	}
	for _, cl := range w.clients {
		for k := range cl.tenants {
			for seed := int64(1); seed <= 2; seed++ {
				if _, err := w.op(cl, svcOp{kind: 'a', tenant: k, seed: seed}, opWarmup, nil); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	return nil
}

// newSvcTenant builds a small tenant: its objects, two traces of
// synthetic per-object streams, and two workload sets to upload.
func newSvcTenant(id string, rng *rand.Rand, model *costmodel.Model, modelJSON json.RawMessage) (*svcTenant, error) {
	n := 4 + rng.Intn(9)
	t := &svcTenant{id: id, versions: map[int64]*dblayout.WorkloadSet{}}
	type docObject struct {
		Name   string `json:"name"`
		SizeMB int64  `json:"size_mb"`
		Kind   string `json:"kind"`
	}
	type docTarget struct {
		Name       string          `json:"name"`
		CapacityMB int64           `json:"capacity_mb"`
		ModelJSON  json.RawMessage `json:"model_json"`
	}
	var doc struct {
		Objects   []docObject           `json:"objects"`
		Targets   []docTarget           `json:"targets"`
		Workloads *dblayout.WorkloadSet `json:"workloads"`
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("obj%d", i)
		size := int64(256 + rng.Intn(4096))
		doc.Objects = append(doc.Objects, docObject{Name: names[i], SizeMB: size, Kind: "table"})
		t.p.Objects = append(t.p.Objects, dblayout.Object{Name: names[i], Size: size << 20, Kind: dblayout.KindTable})
		t.total += size << 20
	}
	for j := 0; j < svcTargets; j++ {
		name := fmt.Sprintf("disk%d", j)
		doc.Targets = append(doc.Targets, docTarget{Name: name, CapacityMB: 64 << 10, ModelJSON: modelJSON})
		t.p.Targets = append(t.p.Targets, &dblayout.Target{Name: name, Capacity: 64 << 30, Model: model})
	}
	for k := range t.traces {
		raw, err := svcTrace(rng, n)
		if err != nil {
			return nil, err
		}
		tr, err := dblayout.ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if t.fitted[k], err = dblayout.FitWorkloads(tr, names, dblayout.FitOptions{ActiveRates: true}); err != nil {
			return nil, err
		}
		t.traces[k] = raw
	}
	// The uploadable workload sets are the fitted ones with seeded rate
	// scaling, so they differ from every trace's fit.
	for k := range t.uploads {
		var ws []*dblayout.Workload
		for _, f := range t.fitted[k].Workloads {
			c := *f
			scale := 0.5 + rng.Float64()
			c.ReadRate *= scale
			c.WriteRate *= scale
			ws = append(ws, &c)
		}
		set, err := dblayout.NewWorkloadSet(ws...)
		if err != nil {
			return nil, err
		}
		t.uploads[k] = set
		body, err := json.Marshal(map[string]interface{}{"workloads": ws})
		if err != nil {
			return nil, err
		}
		t.bodies[k] = body
	}
	doc.Workloads = t.uploads[0]
	var err error
	if t.doc, err = json.Marshal(doc); err != nil {
		return nil, err
	}
	t.current = dblayout.SEE(n, svcTargets)
	return t, nil
}

// svcTrace records a small trace of n objects' synthetic streams on one
// simulated disk.
func svcTrace(rng *rand.Rand, n int) ([]byte, error) {
	eng := storage.NewEngine()
	tr := &storage.Trace{}
	eng.SetTracer(tr)
	disk := storage.NewDisk(eng, "disk", storage.Disk15KConfig())
	for i := 0; i < n; i++ {
		src := &storage.ClosedSource{Engine: eng, Device: disk, Object: i, Stream: uint64(i + 1),
			Pattern: &storage.RunPattern{Rng: rand.New(rand.NewSource(rng.Int63())),
				Base: int64(i) << 30, Extent: 1 << 30, Size: 8192 << rng.Intn(5),
				RunLen: int64(1 + rng.Intn(64)), Count: int64(100 + rng.Intn(100)),
				WriteFrac: rng.Float64() / 4},
			Think: 1e-3 * rng.Float64()}
		src.Start()
	}
	eng.Run(0)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// svcSequence draws a client's timed op sequence.
func svcSequence(rng *rand.Rand, tenants, n int) []svcOp {
	last := make([]int, tenants) // trace each tenant holds
	seq := make([]svcOp, n)
	var prev svcOp // the previous write
	for i := range seq {
		op := svcOp{tenant: rng.Intn(tenants)}
		x := rng.Intn(100)
		switch write := i / svcWriteEvery; {
		case i%svcWriteEvery != svcWriteEvery-1:
			switch {
			case x < pctAdvise:
				op.kind, op.seed = 'a', int64(1+rng.Intn(2))
			case x < pctAdvise+pctGet:
				op.kind = 'g'
			default:
				op.kind = 'h'
			}
		case write%3 == 0:
			op.kind, op.which = 'w', rng.Intn(2)
		case write%3 == 1:
			op.kind = 't'
			last[op.tenant] = 1 - last[op.tenant]
			op.which = last[op.tenant]
		default:
			op = prev
		}
		if op.kind == 'w' || op.kind == 't' {
			prev = op
		}
		seq[i] = op
	}
	return seq
}

func (w *serviceMix) request(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	w.h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.Bytes()
}

// op sends one request and checks its answer; rec, when non-nil, receives
// the op's timing and outputs. It returns the request's server span.
func (w *serviceMix) op(cl *svcClient, op svcOp, id int, rec *opRecord) (int, error) {
	tr := w.tr
	t := cl.tenants[op.tenant]
	var method, path string
	var body []byte
	class := "read"
	switch op.kind {
	case 'a':
		method, path = "POST", "/v1/tenants/"+t.id+"/advise"
		body = []byte(fmt.Sprintf(`{"seed":%d}`, op.seed))
	case 'g':
		method, path = "GET", "/v1/tenants/"+t.id
	case 'h':
		method, path = "GET", "/healthz"
	case 'w':
		method, path, body, class = "POST", "/v1/tenants/"+t.id+"/workloads", t.bodies[op.which], "write"
	case 't':
		method, path, body, class = "POST", "/v1/tenants/"+t.id+"/trace", t.traces[op.which], "trace"
	}
	root := tr.begin(id, 0, "bench.op")
	s := tr.begin(id, root, "server.request")
	start := time.Now()
	code, resp := w.request(method, path, body)
	lat := time.Since(start)
	tr.end(s)
	tr.end(root)
	if code/100 != 2 {
		return 0, checkf("%s %s: status %d: %s", method, path, code, resp)
	}
	r := opRecord{id: id, lat: lat, obj: math.NaN(), class: class}
	switch op.kind {
	case 'a':
		var a struct {
			Version   int64       `json:"version"`
			Cached    bool        `json:"cached"`
			Objective float64     `json:"objective"`
			Degraded  bool        `json:"degraded"`
			Rows      [][]float64 `json:"rows"`
		}
		if err := json.Unmarshal(resp, &a); err != nil {
			return 0, err
		}
		r.class = "advise_miss"
		if a.Cached {
			r.class = "advise_hit"
		}
		l, err := layoutOf(a.Rows, svcTargets)
		if err != nil {
			return 0, checkf("advise %s: %v", t.id, err)
		}
		plan, err := dblayout.MigrationPlan(t.p, t.current, l)
		if err != nil {
			return 0, checkf("advise %s: %v", t.id, err)
		}
		r.obj, r.degraded = a.Objective, a.Degraded
		r.moved, r.bytes = dblayout.PlanBytes(plan), t.total
		// Every answer for one (tenant, version, seed) must be identical.
		k := svcKey{op.tenant, a.Version, op.seed}
		if prev, ok := cl.answers[k]; !ok {
			cl.answers[k] = svcAnswer{obj: a.Objective, rows: a.Rows}
		} else if math.Float64bits(prev.obj) != math.Float64bits(a.Objective) || !sameRows(prev.rows, a.Rows) {
			return 0, checkf("tenant %s version %d seed %d answered differently", t.id, a.Version, op.seed)
		}
	case 'w', 't':
		var u struct {
			Version int64 `json:"version"`
		}
		if err := json.Unmarshal(resp, &u); err != nil {
			return 0, err
		}
		set := t.uploads[op.which]
		if op.kind == 't' {
			set = t.fitted[op.which]
		}
		t.versions[u.Version] = set
	}
	if rec != nil {
		*rec = r
	}
	return s, nil
}

func layoutOf(rows [][]float64, m int) (*dblayout.Layout, error) {
	l := layout.New(len(rows), m)
	for i, row := range rows {
		if len(row) != m {
			return nil, fmt.Errorf("row %d has %d fractions for %d targets", i, len(row), m)
		}
		l.SetRow(i, row)
	}
	return l, nil
}

func (w *serviceMix) counters() (map[string]int64, error) {
	code, body := w.request("GET", "/metrics.json", nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics.json: status %d", code)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = int64(f)
		}
	}
	return out, nil
}

func (w *serviceMix) run() ([]opRecord, error) {
	var err error
	if w.tr != nil {
		if w.base, err = w.counters(); err != nil {
			return nil, err
		}
	}
	out := make([]opRecord, len(w.order))
	spans := make([]int, len(w.order))
	next := make([]int, len(w.clients))
	for k, c := range w.order {
		cl := w.clients[c]
		if spans[k], err = w.op(cl, cl.seq[next[c]], k, &out[k]); err != nil {
			return nil, fmt.Errorf("client %d op %d: %w", c, next[c], err)
		}
		next[c]++
	}
	if w.tr != nil {
		if err := w.attribute(out, spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// attribute hands the advisor phases logged inside the daemon to the
// advise-miss ops that caused them. The daemon's single solver worker
// serializes solves, so one advise's phases run from its seed records to
// its validate record without interleaving, and the validate record's
// objective is the one that op's answer reports.
func (w *serviceMix) attribute(recs []opRecord, spans []int) error {
	tr := w.tr
	type target struct{ op, span int }
	byObj := map[uint64][]target{}
	for i, r := range recs {
		if r.class == "advise_miss" {
			key := math.Float64bits(r.obj)
			byObj[key] = append(byObj[key], target{r.id, spans[i]})
		}
	}
	var group []phase
	for _, p := range tr.takePhases() {
		group = append(group, p)
		if p.name != "validate" {
			continue
		}
		key := math.Float64bits(p.objective)
		ts := byObj[key]
		if len(ts) == 0 {
			return fmt.Errorf("advisor phases with objective %v match no advise miss", p.objective)
		}
		byObj[key] = ts[1:]
		for _, g := range group {
			tr.attachPhase(ts[0].op, ts[0].span, g)
			if g.name == "solve" {
				// The solve record counts the moves the search kept
				// as its iterations.
				tr.count(ts[0].op, "nlp.iters", g.iters)
				tr.count(ts[0].op, "nlp.accepted", g.iters)
				tr.count(ts[0].op, "nlp.evals", g.evals)
			}
		}
		group = nil
	}
	now, err := w.counters()
	if err != nil {
		return err
	}
	for key, name := range map[string]string{
		"server.advise_hits":   "server_advise_cache_hits_total",
		"server.advise_misses": "server_advise_cache_misses_total",
		"server.fit_hits":      "server_fit_cache_hits_total",
		"server.fit_misses":    "server_fit_cache_misses_total",
		"server.rejected":      "server_rejected_total",
	} {
		tr.count(opSetup, key, now[name]-w.base[name])
	}
	return nil
}

// verify checks every distinct advise answer against the problem at its
// version: a valid layout whose peak predicted utilization is the reported
// objective.
func (w *serviceMix) verify() error {
	for _, cl := range w.clients {
		for k, a := range cl.answers {
			t := cl.tenants[k.tenant]
			set := t.versions[k.version]
			if set == nil {
				return checkf("tenant %s answered for unknown version %d", t.id, k.version)
			}
			p := t.p
			p.Workloads = set
			l, err := layoutOf(a.rows, svcTargets)
			if err != nil {
				return checkf("%v", err)
			}
			if err := checkObjective(p, l, a.obj); err != nil {
				return fmt.Errorf("tenant %s version %d: %w", t.id, k.version, err)
			}
		}
	}
	return nil
}

func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func (w *serviceMix) close() { w.srv.Close() }
