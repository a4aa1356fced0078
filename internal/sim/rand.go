package sim

import "math/rand"

// lazySource is the rand.Source64 behind every node's Rand. Seed only records
// the seed; the first draw after it seeds a wrapped math/rand source, whose
// stream from then on is exactly rand.NewSource(seed)'s. math/rand's Seed
// fills a 607-word feedback register, and multi-phase drivers re-seed every
// node per phase while only some nodes ever draw (coloring phases draw
// nothing), so deferring the fill to the first draw skips it for the nodes
// that never need it. The wrapped source is allocated on the first draw and
// reused across every later Seed.
//
// A lazySource lives inside its env, so re-arming it allocates nothing; like
// the env it belongs to, it is owned by one node goroutine at a time.
type lazySource struct {
	src    rand.Source64
	seed   int64
	seeded bool
}

func (s *lazySource) Seed(seed int64) {
	s.seed = seed
	s.seeded = false
}

func (s *lazySource) Int63() int64 { return s.source().Int63() }

func (s *lazySource) Uint64() uint64 { return s.source().Uint64() }

// source seeds the wrapped generator on the first draw after Seed.
func (s *lazySource) source() rand.Source64 {
	if !s.seeded {
		if s.src == nil {
			s.src = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.src.Seed(s.seed)
		}
		s.seeded = true
	}
	return s.src
}

// newLazyRand seeds src and returns a *rand.Rand drawing from it.
func newLazyRand(src *lazySource, seed int64) *rand.Rand {
	src.Seed(seed)
	return rand.New(src)
}
