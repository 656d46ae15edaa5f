package server

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"time"

	"dblayout"
	"dblayout/internal/costmodel"
	"dblayout/internal/layout"
	"dblayout/internal/replay"
)

// tenantState is one immutable snapshot of a tenant: the problem, the
// current layout, and the version that stamps every answer computed from it.
// Handlers grab the snapshot pointer once and work from it; uploads build a
// fresh state and swap the pointer, so a request admitted before an upload
// completes against the world it started in (snapshot isolation).
type tenantState struct {
	version int64
	problem dblayout.Problem
	current *layout.Layout
	names   []string
	sizes   []int64
	caps    []int64
	raw     []byte // the problem document as uploaded (persisted verbatim)
}

// fitEntry is the cached result of fitting workloads from a trace: the
// digest of the trace bytes and the fitted set. A re-upload of the same
// trace is a cache hit; a workload upload explicitly invalidates the entry.
type fitEntry struct {
	sum [sha256.Size]byte
	set *dblayout.WorkloadSet
}

// adviseKey identifies one advise computation: the state version it ran
// against plus the request parameters that change the answer. Keying on the
// version makes invalidation structural — any upload bumps the version, so
// stale entries can never be returned.
type adviseKey struct {
	version int64
	seed    int64
	budget  time.Duration
	skipReg bool
}

// adviseEntry is a cached (or in-flight) advise result. The first request
// for a key computes; concurrent duplicates block on ready and share the
// result (single-flight), so a thundering herd costs one solve.
type adviseEntry struct {
	ready chan struct{}
	rec   *dblayout.Recommendation
	err   error
}

// tenant is one isolated tenant: its state snapshot, its caches, and its
// migration slot. Each cache has its own lock; none is ever held while
// another tenant's locks are, and the state lock is never held across a
// solve.
type tenant struct {
	id string

	mu      sync.Mutex
	state   *tenantState // nil until the first problem upload
	version int64        // monotonic; stamps each installed state

	modelMu sync.Mutex
	models  map[string]*costmodel.Model // calibration-table cache

	fitMu sync.Mutex
	fit   *fitEntry

	adviseMu sync.Mutex
	advise   map[adviseKey]*adviseEntry

	migMu sync.Mutex
	mig   *migration
}

func newTenant(id string) *tenant {
	return &tenant{
		id:     id,
		models: map[string]*costmodel.Model{},
		advise: map[adviseKey]*adviseEntry{},
	}
}

// snapshot returns the current state pointer (nil when no problem has been
// uploaded yet). The returned state is immutable.
func (t *tenant) snapshot() *tenantState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// update applies fn to the tenant's latest state under the state lock and
// installs the result, so concurrent updates compose instead of one reverting
// another. A new snapshot is stamped with the next version and drops the
// advise cache (entries are version-keyed, so this is memory hygiene, not
// correctness); fn returning its argument installs nothing.
func (t *tenant) update(fn func(*tenantState) (*tenantState, error)) (*tenantState, error) {
	t.mu.Lock()
	st, err := fn(t.state)
	changed := err == nil && st != t.state
	if changed {
		t.version++
		st.version = t.version
		t.state = st
	}
	t.mu.Unlock()
	if changed {
		t.adviseMu.Lock()
		t.advise = map[adviseKey]*adviseEntry{}
		t.adviseMu.Unlock()
	}
	return st, err
}

// install swaps in a whole new state snapshot, such as a new document's.
func (t *tenant) install(st *tenantState) *tenantState {
	t.update(func(*tenantState) (*tenantState, error) { return st, nil })
	return st
}

// withLayout clones st with a new current layout — the post-migration state.
func (st *tenantState) withLayout(l *layout.Layout) *tenantState {
	ns := *st
	ns.current = l.Clone()
	return &ns
}

// withWorkloads clones st with a replacement workload set.
func (st *tenantState) withWorkloads(set *dblayout.WorkloadSet) (*tenantState, error) {
	ns := *st
	ns.problem.Workloads = set
	if err := instanceFor(&ns).Validate(); err != nil {
		return nil, err
	}
	return &ns, nil
}

func instanceFor(st *tenantState) *layout.Instance {
	return &layout.Instance{
		Objects:   st.problem.Objects,
		Targets:   st.problem.Targets,
		Workloads: st.problem.Workloads,
	}
}

// namedModel resolves a problem document's named target models for this
// tenant. "@file" references are refused, so the daemon never touches the
// filesystem for a client; a calibrated model comes inline as model_json.
// Built-in device types are calibrated once per tenant and cached:
// calibration runs a storage simulation sweep, far too expensive to repeat
// per request.
func (t *tenant) namedModel(s *Server) func(ref string) (*costmodel.Model, error) {
	return func(ref string) (*costmodel.Model, error) {
		if strings.HasPrefix(ref, "@") {
			return nil, fmt.Errorf("model %q: @file references are not served; upload the model inline as model_json", ref)
		}
		t.modelMu.Lock()
		defer t.modelMu.Unlock()
		if m, ok := t.models[ref]; ok {
			s.mCalHits.Inc()
			return m, nil
		}
		grid := costmodel.DefaultGrid()
		if s.opt.FastCalibration {
			grid = costmodel.FastGrid()
		}
		m, err := replay.CalibrateBuiltin(ref, grid)
		if err != nil {
			return nil, err
		}
		s.mCalibrations.Inc()
		t.models[ref] = m
		return m, nil
	}
}

// buildState reads a problem document into a fresh state snapshot
// (unversioned; install stamps it).
func (t *tenant) buildState(s *Server, raw []byte) (*tenantState, error) {
	doc, err := dblayout.ReadDocument(raw, t.namedModel(s))
	if err != nil {
		return nil, err
	}
	st := &tenantState{problem: doc.Problem, current: doc.Current, raw: raw}
	for _, o := range doc.Problem.Objects {
		st.names = append(st.names, o.Name)
		st.sizes = append(st.sizes, o.Size)
	}
	for _, tg := range doc.Problem.Targets {
		st.caps = append(st.caps, tg.Capacity)
	}
	return st, nil
}

// traceDigest identifies uploaded trace content for the fit cache.
func traceDigest(b []byte) [sha256.Size]byte { return sha256.Sum256(b) }

// layoutRows renders a layout as a JSON-friendly fraction matrix.
func layoutRows(l *layout.Layout) [][]float64 {
	rows := make([][]float64, l.N)
	for i := 0; i < l.N; i++ {
		row := make([]float64, l.M)
		for j := 0; j < l.M; j++ {
			row[j] = l.At(i, j)
		}
		rows[i] = row
	}
	return rows
}
