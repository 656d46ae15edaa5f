// Package seed centralizes pseudo-random stream derivation. Every random
// stream in the repository is derived from a caller-provided base seed plus
// a structured stream identity (which subsystem, which restart, which
// calibration cell, ...). Before this helper existed each call site invented
// its own offset arithmetic (Seed+1, Seed+2, Seed*7919+run*13, ...), which
// made collisions between streams — two different consumers unknowingly
// drawing the same sequence — easy to introduce and hard to notice. Sub
// centralizes the derivation behind a 64-bit mixing function so that
// distinct identity paths yield statistically independent streams for every
// base seed, including 0.
//
// The package has no dependencies so every layer (costmodel, replay, nlp,
// core) can use it without import cycles.
package seed

// Stream identities for Sub's first path element. New consumers must add a
// constant here rather than passing ad-hoc literals, so this registry stays
// the single place where stream separation is audited. Add and retire
// constants only at the end of the block: a value change re-seeds that
// stream, and with it every layout, replay and scenario drawn from it.
const (
	// StreamTransfer feeds TransferSearch's per-restart perturbations.
	StreamTransfer int64 = iota + 1
	// StreamAnneal feeds Anneal's per-restart move/acceptance randomness.
	StreamAnneal
	// StreamProjGrad feeds ProjectedGradient's per-restart perturbations.
	StreamProjGrad
	// StreamAdvisor derives the per-(initial layout, round) solver seeds
	// inside core.Advisor's multi-start loop.
	StreamAdvisor
	// StreamReplay feeds the replay engine's query permutation and random
	// access patterns.
	StreamReplay
	// StreamCalibrate derives the per-cell seeds of cost-model calibration
	// sweeps.
	StreamCalibrate
	// StreamRepair derives the solver seed of failure-aware repair solves.
	StreamRepair
	// StreamControl derives the autonomic controller's per-(epoch, attempt)
	// streams: re-advise solver seeds and retry-backoff jitter.
	StreamControl
	// StreamChaos derives the per-scenario streams of the controller chaos
	// campaign (workload synthesis, fault schedules, crash points).
	StreamChaos
)

// Sub derives the seed of an independent pseudo-random stream from a base
// seed and a stream identity path. The first path element should be one of
// the Stream* constants; further elements identify the instance of the
// stream (restart index, round, cell coordinates, ...). Two calls with the
// same arguments always return the same value; calls whose paths differ in
// any element return unrelated values. The zero base seed is a valid
// deterministic default, never a request for entropy.
func Sub(base int64, path ...int64) int64 {
	x := mix64(uint64(base))
	for _, p := range path {
		// Fold each path element in with a round of mixing so that
		// (a, b) and (a', b') paths with a+b == a'+b' still diverge.
		x = mix64(x ^ mix64(uint64(p)+0x9e3779b97f4a7c15))
	}
	return int64(x)
}

// mix64 is the SplitMix64 finalizer (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators"), a bijective avalanche mix: every input
// bit affects every output bit with probability ~1/2.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
