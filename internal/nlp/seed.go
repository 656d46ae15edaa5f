package nlp

import "dblayout/internal/seed"

// Seed-stream derivation lives in the dependency-free internal/seed package
// (costmodel and replay sit below this package in the import graph and need
// it too). The aliases below keep solver-facing code reading naturally:
// nlp.SubSeed(opt.Seed, nlp.StreamTransfer, restart).

// Stream identities for SubSeed's first path element; see the registry in
// internal/seed for the full list and the rules for adding new streams.
const (
	StreamTransfer = seed.StreamTransfer
	StreamAnneal   = seed.StreamAnneal
	StreamProjGrad = seed.StreamProjGrad
	StreamAdvisor  = seed.StreamAdvisor
	StreamReplay   = seed.StreamReplay
	StreamRepair   = seed.StreamRepair
)

// SubSeed derives the seed of an independent pseudo-random stream from a
// base seed and a stream identity path; see seed.Sub.
func SubSeed(base int64, path ...int64) int64 {
	return seed.Sub(base, path...)
}
