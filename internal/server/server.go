// Package server implements the multi-tenant layout-advisor daemon behind
// cmd/advisord: an HTTP service that holds one isolated problem state per
// tenant and answers advise, repair and migration requests concurrently.
//
// Design points (see DESIGN.md for the full service contract):
//
//   - Snapshot isolation. A tenant's state (problem, workloads, current
//     layout) is an immutable snapshot swapped atomically on upload; a
//     request works entirely from the snapshot it started with.
//   - Caching. Advise results are cached per tenant keyed by state version
//     and request parameters with single-flight deduplication; fitted
//     workloads (rubicon) are cached by trace digest and explicitly
//     invalidated on workload upload; calibration tables are cached per
//     tenant for the life of the tenant's target set.
//   - Admission control. Solver-bound work passes a bounded worker pool
//     with a bounded wait queue; bursts beyond both degrade to 503, not
//     OOM. Each solve runs under the configured SolveBudget.
//   - Durability. Migrations execute against a deterministic simulated I/O
//     substrate and journal to a per-tenant write-ahead file using the
//     controller journal format, through the epoch owner the autonomic
//     controller uses (control.Journal); a daemon restart resumes every
//     in-flight migration exactly once through it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dblayout"
	"dblayout/internal/obs"
)

// Options configures a Server.
type Options struct {
	// DataDir is where per-tenant problem documents and migration
	// journals persist. Empty disables persistence: tenants live in
	// memory only and migration endpoints return 503.
	DataDir string
	// Workers bounds concurrent solver-bound requests (advise, repair,
	// fit). Default: max(1, GOMAXPROCS/2).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the pool
	// itself. Default: 4×Workers. Beyond the queue, requests get 503.
	QueueDepth int
	// SolveBudget is the default and maximum per-request solve budget; a
	// request's budget_ms is clamped to it. Default 30s.
	SolveBudget time.Duration
	// FastCalibration selects the reduced calibration grid for built-in
	// device models. On a 2-vCPU host a full-grid calibration takes about
	// 0.15 s per device type and occupies every CPU meanwhile; the fast
	// grid takes about 2 ms.
	FastCalibration bool
	// SimBytesPerSec is the simulated device service rate migrations run
	// against. Default 256 MiB/s.
	SimBytesPerSec float64
	// SimStep is how many simulated seconds each pump tick advances a
	// running migration. Default 50ms of simulated time per tick.
	SimStep float64
	// PumpInterval is the real-time interval between pump ticks.
	// Default 2ms. SimStep/PumpInterval sets the sim-to-real time ratio.
	PumpInterval time.Duration
	// Logger receives request and lifecycle logs (nil disables).
	Logger *slog.Logger
	// Registry receives server_* metrics (nil allocates a private one so
	// /metrics always works).
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.SolveBudget <= 0 {
		o.SolveBudget = 30 * time.Second
	}
	if o.SimBytesPerSec <= 0 {
		o.SimBytesPerSec = 256 << 20
	}
	if o.SimStep <= 0 {
		o.SimStep = 0.05
	}
	if o.PumpInterval <= 0 {
		o.PumpInterval = 2 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// Server is the multi-tenant advisor service. Create with New, mount
// Handler on an HTTP server, and Close on shutdown.
type Server struct {
	opt Options
	mux *http.ServeMux
	adm *admission
	reg *obs.Registry
	log *slog.Logger

	ctx    context.Context // lifetime context for shared computations
	cancel context.CancelFunc

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool

	wg sync.WaitGroup // migration pump goroutines

	mTenants      *obs.Gauge
	mInflight     *obs.Gauge
	mAdviseHits   *obs.Counter
	mAdviseMisses *obs.Counter
	mFitHits      *obs.Counter
	mFitMisses    *obs.Counter
	mCalHits      *obs.Counter
	mCalibrations *obs.Counter
	mRejected     *obs.Counter
	mRecovered    *obs.Counter
}

var tenantID = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// New builds the server and, when DataDir is set, restores every persisted
// tenant and resumes in-flight migrations from their journals exactly once.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:     opt,
		adm:     newAdmission(opt.Workers, opt.QueueDepth),
		reg:     opt.Registry,
		log:     opt.Logger,
		ctx:     ctx,
		cancel:  cancel,
		tenants: map[string]*tenant{},
	}
	s.mTenants = s.reg.Gauge("server_tenants")
	s.mInflight = s.reg.Gauge("server_inflight_requests")
	s.mAdviseHits = s.reg.Counter("server_advise_cache_hits_total")
	s.mAdviseMisses = s.reg.Counter("server_advise_cache_misses_total")
	s.mFitHits = s.reg.Counter("server_fit_cache_hits_total")
	s.mFitMisses = s.reg.Counter("server_fit_cache_misses_total")
	s.mCalHits = s.reg.Counter("server_calibration_cache_hits_total")
	s.mCalibrations = s.reg.Counter("server_calibrations_total")
	s.mRejected = s.reg.Counter("server_rejected_total")
	s.mRecovered = s.reg.Counter("server_migrations_recovered_total")

	if opt.DataDir != "" {
		if err := os.MkdirAll(opt.DataDir, 0o755); err != nil {
			cancel()
			return nil, err
		}
		if err := s.restore(); err != nil {
			cancel()
			return nil, err
		}
	}

	mux := http.NewServeMux()
	s.route(mux, "GET /healthz", "healthz", s.handleHealthz)
	s.route(mux, "GET /v1/tenants", "tenants_list", s.handleTenantsList)
	s.route(mux, "PUT /v1/tenants/{id}", "tenant_put", s.handleTenantPut)
	s.route(mux, "GET /v1/tenants/{id}", "tenant_get", s.handleTenantGet)
	s.route(mux, "DELETE /v1/tenants/{id}", "tenant_delete", s.handleTenantDelete)
	s.route(mux, "POST /v1/tenants/{id}/workloads", "workloads", s.handleWorkloads)
	s.route(mux, "POST /v1/tenants/{id}/trace", "trace", s.handleTrace)
	s.route(mux, "POST /v1/tenants/{id}/advise", "advise", s.handleAdvise)
	s.route(mux, "POST /v1/tenants/{id}/repair", "repair", s.handleRepair)
	s.route(mux, "POST /v1/tenants/{id}/migrate", "migrate", s.handleMigrate)
	s.route(mux, "GET /v1/tenants/{id}/migration", "migration", s.handleMigration)
	oh := obs.NewHandler(s.reg)
	mux.Handle("/metrics", oh)
	mux.Handle("/metrics.json", oh)
	mux.Handle("/series", oh)
	mux.Handle("/debug/pprof/", oh)
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the server: new migration starts are refused, running pump
// goroutines abandon their migrations at a journal record boundary (crash
// semantics — the journal resumes them exactly once on the next start), and
// shared solves are cancelled.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// codeCounters holds one handler's server_requests_total counters, one per
// status code, each resolved in the registry on the code's first request.
// Two requests racing on a first use resolve the same counter.
type codeCounters struct {
	reg     *obs.Registry
	handler string
	// byCode is indexed by status code. net/http's WriteHeader panics on
	// a code outside 100-999, so a request that reaches its counter has
	// one inside.
	byCode [1000]atomic.Pointer[obs.Counter]
}

func (c *codeCounters) counter(code int) *obs.Counter {
	if ctr := c.byCode[code].Load(); ctr != nil {
		return ctr
	}
	ctr := c.reg.Counter(obs.Name("server_requests_total", "handler", c.handler, "code", strconv.Itoa(code)))
	c.byCode[code].Store(ctr)
	return ctr
}

func (s *Server) route(mux *http.ServeMux, pattern, name string, h http.HandlerFunc) {
	hist := s.reg.Histogram(obs.Name("server_request_seconds", "handler", name), obs.LatencyBuckets())
	requests := &codeCounters{reg: s.reg, handler: name}
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		hist.Observe(time.Since(start).Seconds())
		requests.counter(sw.code).Inc()
		if s.log != nil {
			s.log.Debug("request", "handler", name, "code", sw.code,
				"elapsed", time.Since(start), "path", r.URL.Path)
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// tenantFor fetches (or with create, makes) the tenant for the request's
// {id} path value, writing the error response itself when it returns nil.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request, create bool) *tenant {
	id := r.PathValue("id")
	if !tenantID.MatchString(id) {
		writeError(w, http.StatusBadRequest, "invalid tenant id %q", id)
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	if !ok {
		if !create {
			writeError(w, http.StatusNotFound, "unknown tenant %q", id)
			return nil
		}
		if s.closed {
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
			return nil
		}
		t = newTenant(id)
		s.tenants[id] = t
		s.mTenants.Set(float64(len(s.tenants)))
	}
	return t
}

// snapshotFor resolves the tenant and its state snapshot, handling both
// error responses.
func (s *Server) snapshotFor(w http.ResponseWriter, r *http.Request) (*tenant, *tenantState) {
	t := s.tenantFor(w, r, false)
	if t == nil {
		return nil, nil
	}
	st := t.snapshot()
	if st == nil {
		writeError(w, http.StatusConflict, "tenant %q has no problem document", t.id)
		return nil, nil
	}
	return t, st
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.tenants)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok", "tenants": n, "inflight": s.adm.inflight(),
	})
}

func (s *Server) handleTenantsList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, map[string]interface{}{"tenants": ids})
}

func (s *Server) handleTenantPut(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r, true)
	if t == nil {
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	st, err := t.buildState(s, raw)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// A new problem document resets the tenant's world: the fitted-
	// workload cache and the migration journal describe the old one. The
	// in-flight check, the reset and the install are one migMu section, so
	// no migration starts or finishes against the old document in between.
	t.migMu.Lock()
	if t.mig != nil && !t.mig.finished {
		t.migMu.Unlock()
		writeError(w, http.StatusConflict, "tenant %q has a migration in flight", t.id)
		return
	}
	t.fitMu.Lock()
	t.fit = nil
	t.fitMu.Unlock()
	t.mig = nil
	if s.opt.DataDir != "" {
		_ = os.Remove(s.journalPath(t.id))
	}
	st = t.install(st)
	t.migMu.Unlock()
	if err := s.persistDoc(t.id, raw); err != nil {
		writeError(w, http.StatusInternalServerError, "persisting problem: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": t.id, "version": st.version,
		"objects": len(st.names), "targets": len(st.caps),
	})
}

func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	t, st := s.snapshotFor(w, r)
	if t == nil {
		return
	}
	t.migMu.Lock()
	migrating := t.mig != nil && !t.mig.finished
	t.migMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": t.id, "version": st.version,
		"objects": st.names, "targets": len(st.caps),
		"current":   layoutRows(st.current),
		"migrating": migrating,
	})
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
		s.mTenants.Set(float64(len(s.tenants)))
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown tenant %q", id)
		return
	}
	t.migMu.Lock()
	if t.mig != nil && !t.mig.finished {
		close(t.mig.stop)
	}
	t.migMu.Unlock()
	if s.opt.DataDir != "" {
		_ = os.Remove(s.docPath(id))
		_ = os.Remove(s.journalPath(id))
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	t, _ := s.snapshotFor(w, r)
	if t == nil {
		return
	}
	var body struct {
		Workloads []*dblayout.Workload `json:"workloads"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "parsing workloads: %v", err)
		return
	}
	set, err := dblayout.NewWorkloadSet(body.Workloads...)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	ns, err := t.update(func(cur *tenantState) (*tenantState, error) { return cur.withWorkloads(set) })
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// Explicit invalidation: a direct workload upload supersedes whatever
	// trace the fitted set came from.
	t.fitMu.Lock()
	t.fit = nil
	t.fitMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": t.id, "version": ns.version, "workloads": len(body.Workloads),
	})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t, st := s.snapshotFor(w, r)
	if t == nil {
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading trace: %v", err)
		return
	}
	set, cached, err := s.fitTrace(r.Context(), t, st, raw)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, ErrOverloaded) {
			code = http.StatusServiceUnavailable
		} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = 499 // client closed request
		}
		writeError(w, code, "%v", err)
		return
	}
	ns, err := t.update(func(cur *tenantState) (*tenantState, error) {
		if cur.problem.Workloads == set {
			return cur, nil
		}
		return cur.withWorkloads(set)
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "fitted workloads: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": t.id, "version": ns.version, "cached": cached,
		"workloads": len(st.names),
	})
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	t, st := s.snapshotFor(w, r)
	if t == nil {
		return
	}
	var req struct {
		Seed               int64 `json:"seed"`
		BudgetMS           int64 `json:"budget_ms"`
		SkipRegularization bool  `json:"skip_regularization"`
		Utilizations       bool  `json:"utilizations"`
	}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "parsing request: %v", err)
			return
		}
	}
	budget := s.opt.SolveBudget
	if req.BudgetMS > 0 && time.Duration(req.BudgetMS)*time.Millisecond < budget {
		budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
	key := adviseKey{version: st.version, seed: req.Seed, budget: budget, skipReg: req.SkipRegularization}
	start := time.Now()
	rec, cached, err := s.advise(r.Context(), t, st, key)
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, dblayout.ErrInfeasible):
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeError(w, 499, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	resp := map[string]interface{}{
		"tenant": t.id, "version": st.version, "cached": cached,
		"objective":        rec.FinalObjective,
		"solver_objective": rec.SolverObjective,
		"degraded":         rec.Degraded,
		"rows":             layoutRows(rec.Final),
		"elapsed_ms":       float64(time.Since(start)) / float64(time.Millisecond),
	}
	if rec.Degradation != nil {
		resp["degradation"] = rec.Degradation.Error()
	}
	if req.Utilizations {
		if utils, uerr := dblayout.Utilizations(st.problem, rec.Final); uerr == nil {
			resp["utilizations"] = utils
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// advise returns the recommendation for key, computing it at most once per
// key (single-flight) and caching the result for the life of the state
// version.
func (s *Server) advise(ctx context.Context, t *tenant, st *tenantState, key adviseKey) (*dblayout.Recommendation, bool, error) {
	t.adviseMu.Lock()
	if e, ok := t.advise[key]; ok {
		t.adviseMu.Unlock()
		s.mAdviseHits.Inc()
		select {
		case <-e.ready:
			return e.rec, true, e.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e := &adviseEntry{ready: make(chan struct{})}
	t.advise[key] = e
	t.adviseMu.Unlock()
	s.mAdviseMisses.Inc()

	release, err := s.adm.acquire(ctx)
	if err != nil {
		// Admission failures are per-request conditions, not properties of
		// the key: drop the entry so the next request retries, and fail
		// any concurrent waiters with the same transient error.
		t.adviseMu.Lock()
		delete(t.advise, key)
		t.adviseMu.Unlock()
		e.err = err
		close(e.ready)
		return nil, false, err
	}
	defer release()
	s.mInflight.Set(float64(s.adm.inflight()))

	// Solve under the server's lifetime context, not the initiating
	// request's: the result is shared with concurrent waiters, so one
	// impatient client must not cancel everyone's answer.
	rec, err := dblayout.RecommendContext(s.ctx, st.problem, dblayout.Options{
		Seed:               key.seed,
		SolveBudget:        key.budget,
		SkipRegularization: key.skipReg,
		Workers:            1, // parallelism comes from the pool, not per-solve
		Logger:             s.log,
	})
	if err != nil && rec != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		err = nil // shutdown mid-solve with a usable layout: serve it
	}
	if rec == nil && err == nil {
		err = fmt.Errorf("advisor returned no layout")
	}
	e.rec, e.err = rec, err
	if err != nil && rec != nil {
		e.rec, e.err = nil, err
	}
	close(e.ready)
	return e.rec, false, e.err
}

// fitTrace fits workloads from raw trace bytes, memoized by digest.
func (s *Server) fitTrace(ctx context.Context, t *tenant, st *tenantState, raw []byte) (*dblayout.WorkloadSet, bool, error) {
	sum := traceDigest(raw)
	t.fitMu.Lock()
	if f := t.fit; f != nil && f.sum == sum {
		t.fitMu.Unlock()
		s.mFitHits.Inc()
		return f.set, true, nil
	}
	t.fitMu.Unlock()
	s.mFitMisses.Inc()

	release, err := s.adm.acquire(ctx)
	if err != nil {
		return nil, false, err
	}
	defer release()
	tr, err := dblayout.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		return nil, false, err
	}
	set, err := dblayout.FitWorkloads(tr, st.names, dblayout.FitOptions{ActiveRates: true})
	if err != nil {
		return nil, false, err
	}
	t.fitMu.Lock()
	t.fit = &fitEntry{sum: sum, set: set}
	t.fitMu.Unlock()
	return set, false, nil
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	t, st := s.snapshotFor(w, r)
	if t == nil {
		return
	}
	var req struct {
		Failed []int `json:"failed"`
		Seed   int64 `json:"seed"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	if len(req.Failed) == 0 {
		writeError(w, http.StatusBadRequest, "repair needs at least one failed target")
		return
	}
	for _, j := range req.Failed {
		if j < 0 || j >= len(st.caps) {
			writeError(w, http.StatusBadRequest, "failed target %d outside 0..%d", j, len(st.caps)-1)
			return
		}
	}
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		code := http.StatusServiceUnavailable
		if !errors.Is(err, ErrOverloaded) {
			code = 499
		}
		writeError(w, code, "%v", err)
		return
	}
	defer release()
	rep, err := dblayout.RecommendRepair(s.ctx, st.problem, st.current, req.Failed, dblayout.Options{
		Seed: req.Seed, SolveBudget: s.opt.SolveBudget, Workers: 1, Logger: s.log,
	})
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, dblayout.ErrInfeasible) {
			code = http.StatusUnprocessableEntity
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": t.id, "version": st.version,
		"rows":       layoutRows(rep.Layout),
		"objective":  rep.Objective,
		"failed":     rep.Failed,
		"affected":   rep.Affected,
		"plan_moves": len(rep.Plan),
		"plan_bytes": rep.PlanBytes,
	})
}

func (s *Server) docPath(id string) string {
	return filepath.Join(s.opt.DataDir, id+".problem.json")
}

func (s *Server) journalPath(id string) string {
	return filepath.Join(s.opt.DataDir, id+".journal")
}

// persistDoc atomically writes the tenant's problem document so a restarted
// daemon can rebuild the tenant before replaying its migration journal.
func (s *Server) persistDoc(id string, raw []byte) error {
	if s.opt.DataDir == "" {
		return nil
	}
	tmp := s.docPath(id) + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.docPath(id))
}
