package costmodel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"dblayout/internal/seed"
	"dblayout/internal/storage"
)

// TargetFactory constructs a fresh instance of the target type being
// calibrated, attached to the given engine. Each calibration cell runs
// against a fresh device so cells are independent. Calibrate measures cells
// in parallel, so a factory is called from several goroutines at once and
// must build an independent device on each call, sharing nothing mutable
// with the devices of other calls.
type TargetFactory func(e *storage.Engine) storage.Device

// Grid describes the calibration sweep: the controlled request sizes, run
// counts, and contention levels (expressed as the number of closed-loop
// competing random streams; the *measured* contention factor of each run is
// what gets recorded on the curve's axis).
type Grid struct {
	Sizes           []int64
	RunCounts       []int64
	Competitors     []int
	RequestsPerCell int
	// CompetitorSize is the request size of the competing streams
	// (default 8 KiB). Per the paper's simplification, interference
	// depends on the competing request *rate*, not on the competitors'
	// own properties.
	CompetitorSize int64
	// WarmupFraction of the primary stream's requests is excluded from
	// measurement (default 0.15).
	WarmupFraction float64
	Seed           int64
}

// DefaultGrid returns the full calibration sweep used by the experiments.
func DefaultGrid() Grid {
	return Grid{
		Sizes:           []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10},
		RunCounts:       []int64{1, 2, 4, 8, 16, 32, 64, 128},
		Competitors:     []int{0, 1, 2, 3, 4, 6, 8, 12},
		RequestsPerCell: 1200,
		CompetitorSize:  8 << 10,
		WarmupFraction:  0.15,
		Seed:            1,
	}
}

// FastGrid returns a reduced sweep for tests: coarse but covering the same
// phenomena.
func FastGrid() Grid {
	g := DefaultGrid()
	g.Sizes = []int64{8 << 10, 64 << 10}
	g.RunCounts = []int64{1, 8, 64}
	g.Competitors = []int{0, 2, 6}
	g.RequestsPerCell = 400
	return g
}

func (g Grid) withDefaults() Grid {
	if g.CompetitorSize <= 0 {
		g.CompetitorSize = 8 << 10
	}
	if g.WarmupFraction <= 0 || g.WarmupFraction >= 0.9 {
		g.WarmupFraction = 0.15
	}
	if g.RequestsPerCell <= 0 {
		g.RequestsPerCell = 1200
	}
	return g
}

// Calibrate builds a complete cost model for the target type by measuring
// per-request service costs under every grid cell, exactly as the paper's
// Sec. 5.2.2 describes for physical devices.
//
// The read and write tables' cells are measured over runtime.GOMAXPROCS(0)
// goroutines. Each cell runs its own engine and device from its own derived
// seed, and the curves are assembled in grid order afterwards, so the model
// is the same at any worker count. A panic in a cell is re-raised on the
// caller.
func Calibrate(name string, factory TargetFactory, grid Grid) *Model {
	grid = grid.withDefaults()
	perTable := len(grid.Sizes) * len(grid.RunCounts) * len(grid.Competitors)
	cells := make([]cellResult, 2*perTable)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = p
				}
				panicMu.Unlock()
				next.Store(int64(len(cells))) // stop the other workers
			}
		}()
		for {
			k := int(next.Add(1) - 1)
			if k >= len(cells) {
				return
			}
			// Cell k is (table, size, run count, competitors) in
			// row-major order, the read table first.
			c := k % perTable
			ci := c % len(grid.Competitors)
			ri := c / len(grid.Competitors) % len(grid.RunCounts)
			si := c / len(grid.Competitors) / len(grid.RunCounts)
			r := &cells[k]
			r.chi, r.cost = calibrateCell(factory, grid, grid.Sizes[si], grid.RunCounts[ri], grid.Competitors[ci], k >= perTable)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(cells))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return &Model{
		Target: name,
		Read:   assembleTable(grid, cells[:perTable]),
		Write:  assembleTable(grid, cells[perTable:]),
	}
}

// cellResult is one calibration cell's measured contention factor and mean
// per-request cost.
type cellResult struct{ chi, cost float64 }

// assembleTable builds one direction's table from its cells, given in
// row-major (size, run count, competitors) order.
func assembleTable(grid Grid, cells []cellResult) Table {
	t := Table{}
	for _, s := range grid.Sizes {
		t.Sizes = append(t.Sizes, float64(s))
	}
	for _, rc := range grid.RunCounts {
		t.RunCounts = append(t.RunCounts, float64(rc))
	}
	t.Curves = make([][]Curve, len(grid.Sizes))
	for si := range grid.Sizes {
		t.Curves[si] = make([]Curve, len(grid.RunCounts))
		for ri := range grid.RunCounts {
			curve := Curve{}
			for _, c := range cells[:len(grid.Competitors)] {
				chi := c.chi
				// The measured contention axis must be strictly
				// increasing for interpolation.
				if n := len(curve.Contention); n > 0 && chi <= curve.Contention[n-1] {
					chi = curve.Contention[n-1] + 1e-6
				}
				curve.Contention = append(curve.Contention, chi)
				curve.Cost = append(curve.Cost, c.cost)
			}
			cells = cells[len(grid.Competitors):]
			t.Curves[si][ri] = curve
		}
	}
	t.fillLogs()
	return t
}

// calibrateCell runs one controlled workload and returns the measured
// contention factor and the mean per-request service cost of the primary
// stream after warmup.
func calibrateCell(factory TargetFactory, grid Grid, size, run int64, competitors int, write bool) (chi, cost float64) {
	e := storage.NewEngine()
	dev := factory(e)

	// Every cell (and every competitor within it) draws from its own
	// derived stream, so no two cells of the sweep share a sequence.
	cellSeed := seed.Sub(grid.Seed, seed.StreamCalibrate, size, run, int64(competitors))
	extent := dev.Capacity() / 4
	if extent < 64<<20 {
		extent = 64 << 20
	}

	warmup := int64(float64(grid.RequestsPerCell) * grid.WarmupFraction)
	var primaryDone bool
	var measured int64
	var serviceSum float64
	var compCompleted, compAtWarmup int64
	wf := 0.0
	if write {
		wf = 1.0
	}

	primary := &storage.ClosedSource{
		Engine: e,
		Device: dev,
		Stream: 1,
		Pattern: &storage.RunPattern{
			Rng:       rand.New(rand.NewSource(cellSeed)),
			Base:      0,
			Extent:    extent,
			Size:      size,
			RunLen:    run,
			Count:     int64(grid.RequestsPerCell),
			WriteFrac: wf,
		},
		OnDone: func(float64) { primaryDone = true },
	}
	var completedPrimary int64
	primary.OnComplete = func(r *storage.Request) {
		completedPrimary++
		if completedPrimary == warmup {
			compAtWarmup = compCompleted
		}
		if completedPrimary > warmup {
			measured++
			serviceSum += r.ServiceTime()
		}
	}

	for c := 0; c < competitors; c++ {
		comp := &storage.ClosedSource{
			Engine: e,
			Device: dev,
			Stream: uint64(100 + c),
			Pattern: &storage.RunPattern{
				Rng:    rand.New(rand.NewSource(seed.Sub(cellSeed, int64(c)+1))),
				Base:   extent * 2,
				Extent: extent,
				Size:   grid.CompetitorSize,
				RunLen: 1,
				Count:  -1,
			},
			OnComplete: func(*storage.Request) { compCompleted++ },
		}
		comp.Start()
	}
	primary.Start()

	for !primaryDone && e.Step() {
	}

	if measured == 0 {
		return float64(competitors), 1e-3
	}
	chi = float64(compCompleted-compAtWarmup) / float64(measured)
	cost = serviceSum / float64(measured)
	return chi, cost
}

// Cache memoizes calibrated models by name so experiments that share a
// device type calibrate it once.
type Cache struct {
	mu     sync.Mutex
	models map[string]*Model
}

// NewCache returns an empty model cache.
func NewCache() *Cache { return &Cache{models: make(map[string]*Model)} }

// Get returns the cached model for name, calibrating it on first use.
func (c *Cache) Get(name string, factory TargetFactory, grid Grid) *Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.models[name]; ok {
		return m
	}
	m := Calibrate(name, factory, grid)
	c.models[name] = m
	return m
}

// Put stores a pre-built model (e.g. one loaded from disk).
func (c *Cache) Put(m *Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.models[m.Target] = m
}
