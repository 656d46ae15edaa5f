// Package autoadmin re-implements the Microsoft AutoAdmin database layout
// technique (Agrawal, Chaudhuri, Das, Narasayya, ICDE 2003) that the paper
// compares against in Sec. 6.6.
//
// Unlike the paper's advisor, AutoAdmin consumes a SQL-level workload
// description rather than per-object I/O statistics. It builds a graph whose
// nodes are database objects (weighted by estimated I/O volume) and whose
// edges connect objects that are accessed concurrently by the same query
// (weighted by co-access intensity). Layout proceeds in two steps:
//
//  1. partitioning: each object is placed on a single target so that
//     heavily co-accessed objects are separated and node weights stay
//     balanced across targets;
//  2. parallelism: objects are spread over additional targets, in decreasing
//     weight order, as long as the spread does not co-locate them with
//     objects they are heavily co-accessed with.
//
// The resulting layout is regular. The technique models neither workload
// concurrency nor target heterogeneity — the properties the paper shows
// limit it — and its I/O estimates come from optimizer cardinalities, whose
// errors can be injected here via Config.VolumeMultipliers to reproduce the
// paper's PostgreSQL Q18 observation.
package autoadmin

import (
	"fmt"
	"sort"

	"dblayout/internal/layout"
)

// Access records one query's estimated I/O volume (bytes) against an object.
type Access struct {
	Object int
	Volume float64
}

// Query is one statement of the SQL workload with its execution frequency.
type Query struct {
	Name     string
	Weight   float64
	Accesses []Access
}

// Config tunes the layout heuristic.
type Config struct {
	// Sizes are object sizes in bytes; Capacities are target capacities.
	Sizes      []int64
	Capacities []int64
	// VolumeMultipliers optionally scales each object's estimated volume,
	// modelling query-optimizer cardinality estimation errors. Empty
	// means exact estimates.
	VolumeMultipliers []float64
	// BalanceWeight trades off co-access separation against load balance
	// in the partitioning step (default 0.5).
	BalanceWeight float64
	// SpreadThreshold is the fraction of an object's own weight above
	// which an edge is "heavy" and blocks co-location during the
	// parallelism step (default 0.3).
	SpreadThreshold float64
	// MaxSpread bounds how many targets one object may be spread over in
	// the parallelism step (default: all).
	MaxSpread int
}

func (c Config) withDefaults(m int) Config {
	if c.BalanceWeight <= 0 {
		c.BalanceWeight = 0.5
	}
	if c.SpreadThreshold <= 0 {
		c.SpreadThreshold = 0.3
	}
	if c.MaxSpread <= 0 || c.MaxSpread > m {
		c.MaxSpread = m
	}
	return c
}

// graph is the weighted co-access graph.
type graph struct {
	n    int
	node []float64   // estimated I/O volume per object
	edge [][]float64 // co-access weight, symmetric
}

// buildGraph constructs the co-access graph from the SQL workload.
func buildGraph(queries []Query, n int, mult []float64) (*graph, error) {
	g := &graph{n: n, node: make([]float64, n), edge: make([][]float64, n)}
	for i := range g.edge {
		g.edge[i] = make([]float64, n)
	}
	scale := func(obj int, v float64) float64 {
		if len(mult) > obj && mult[obj] > 0 {
			return v * mult[obj]
		}
		return v
	}
	for _, q := range queries {
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		for _, a := range q.Accesses {
			if a.Object < 0 || a.Object >= n {
				return nil, fmt.Errorf("autoadmin: query %q references object %d of %d", q.Name, a.Object, n)
			}
			g.node[a.Object] += w * scale(a.Object, a.Volume)
		}
		for x := 0; x < len(q.Accesses); x++ {
			for y := x + 1; y < len(q.Accesses); y++ {
				ax, ay := q.Accesses[x], q.Accesses[y]
				vx, vy := scale(ax.Object, ax.Volume), scale(ay.Object, ay.Volume)
				co := w * min(vx, vy)
				g.edge[ax.Object][ay.Object] += co
				g.edge[ay.Object][ax.Object] += co
			}
		}
	}
	return g, nil
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Recommend produces a regular layout of n objects over m targets from the
// SQL workload description.
func Recommend(queries []Query, n, m int, cfg Config) (*layout.Layout, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("autoadmin: invalid problem size %dx%d", n, m)
	}
	if len(cfg.Sizes) != n || len(cfg.Capacities) != m {
		return nil, fmt.Errorf("autoadmin: got %d sizes, %d capacities for %dx%d",
			len(cfg.Sizes), len(cfg.Capacities), n, m)
	}
	cfg = cfg.withDefaults(m)
	g, err := buildGraph(queries, n, cfg.VolumeMultipliers)
	if err != nil {
		return nil, err
	}

	assign, err := partition(g, m, cfg)
	if err != nil {
		return nil, err
	}
	spread := parallelize(g, assign, m, cfg)

	l := layout.New(n, m)
	for i := 0; i < n; i++ {
		l.SetRow(i, layout.RegularRow(m, spread[i]))
	}
	return l, nil
}

// partition implements step 1: single-target placement that separates
// heavily co-accessed objects while balancing estimated load, respecting
// capacity. Objects are placed in decreasing node-weight order (stable, so
// ties keep ascending object id), each on the target with room for it that
// has the lowest score
//
//	score(i, j) = aff(i, j)/norm + BalanceWeight * load(j)/norm
//
// where aff(i, j) is the summed co-access edge weight between i and the
// objects already placed on j. Affinities are maintained incrementally —
// each placed object's edges are visited once — so the whole assignment is
// O(n*m + edges) rather than the O(n^2 * m) of rescanning placed objects per
// candidate. Ties on score keep the lowest target id, which makes the result
// deterministic for a fixed input.
func partition(g *graph, m int, cfg Config) ([]int, error) {
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return g.node[order[a]] > g.node[order[b]] })

	var totalLoad float64
	for _, w := range g.node {
		totalLoad += w
	}
	norm := totalLoad/float64(m) + 1

	free := make([]float64, m)
	for j := range free {
		free[j] = float64(cfg.Capacities[j])
	}
	assign := make([]int, g.n)
	for i := range assign {
		assign[i] = -1
	}
	load := make([]float64, m)
	aff := make([]float64, g.n*m)

	for _, i := range order {
		best, bestScore := -1, 0.0
		for j := 0; j < m; j++ {
			if free[j] < float64(cfg.Sizes[i]) {
				continue
			}
			score := aff[i*m+j]/norm + cfg.BalanceWeight*load[j]/norm
			if best < 0 || score < bestScore {
				best, bestScore = j, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("autoadmin: no target has capacity for object %d", i)
		}
		assign[i] = best
		load[best] += g.node[i]
		for k, w := range g.edge[i] {
			if w > 0 && assign[k] < 0 {
				aff[k*m+best] += w
			}
		}
		free[best] -= float64(cfg.Sizes[i])
	}
	return assign, nil
}

// parallelize implements step 2: widen each object's target set for I/O
// parallelism, in decreasing weight order, skipping targets that hold
// objects the candidate is heavily co-accessed with. Capacity is respected
// throughout.
func parallelize(g *graph, assign []int, m int, cfg Config) [][]int {
	spread := make([][]int, g.n)
	used := make([]float64, m)
	for i, j := range assign {
		spread[i] = []int{j}
		used[j] += float64(cfg.Sizes[i])
	}

	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return g.node[order[a]] > g.node[order[b]] })

	for _, i := range order {
		if g.node[i] <= 0 {
			continue
		}
		for j := 0; j < m && len(spread[i]) < cfg.MaxSpread; j++ {
			if contains(spread[i], j) {
				continue
			}
			heavy := false
			for k, ts := range spread {
				if k == i || !contains(ts, j) {
					continue
				}
				// An edge is heavy relative to the smaller of the
				// two objects' weights, so a hot object cannot
				// invade the target of a partner for which the
				// co-access is significant.
				if g.edge[i][k] > cfg.SpreadThreshold*min(g.node[i], g.node[k]) {
					heavy = true
					break
				}
			}
			if heavy {
				continue
			}
			// Adding target j redistributes the object evenly over
			// one more target; check capacity with the new share.
			newShare := float64(cfg.Sizes[i]) / float64(len(spread[i])+1)
			oldShare := float64(cfg.Sizes[i]) / float64(len(spread[i]))
			if used[j]+newShare > float64(cfg.Capacities[j]) {
				continue
			}
			for _, t := range spread[i] {
				used[t] -= oldShare - newShare
			}
			used[j] += newShare
			spread[i] = append(spread[i], j)
			sort.Ints(spread[i])
		}
	}
	return spread
}

func contains(ts []int, j int) bool {
	for _, t := range ts {
		if t == j {
			return true
		}
	}
	return false
}
