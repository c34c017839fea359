package core

import (
	"math/rand"
	"sync"
)

// shuffleStreams memoizes the outputs of rand.NewSource(seed) for the most
// recently used seed. Every batch of a replay shuffles from the same seed,
// so the shuffle compaction seeds math/rand's 607-word generator once per
// process instead of once per batch. Only one seed is kept, so the memo
// holds as many draws as the longest compaction since that seed was last
// switched to, whatever the number of batches or of distinct seeds.
var shuffleStreams struct {
	mu  sync.Mutex
	cur *seedMemo
}

// seedMemo is the output stream of one seeded source. vals only ever
// grows, under shuffleStreams.mu, and its entries never change once
// written, so a reader holding a prefix of it reads without the lock.
type seedMemo struct {
	seed int64
	src  rand.Source64 // positioned after vals
	vals []uint64      // src's Uint64 outputs, in draw order
}

// memoChunk is how many draws a memo grows by at a time, so a reader
// takes the lock once per chunk rather than once per draw.
const memoChunk = 256

// seededRand returns a generator that draws exactly what
// rand.New(rand.NewSource(seed)) draws, from the shared memo of the seed.
// It is safe to use next to other goroutines' generators.
func seededRand(seed int64) *rand.Rand {
	return rand.New(&memoSource{memo: memoFor(seed)})
}

// memoFor returns the memo of seed, starting a new one, and dropping the
// last, when seed is not the most recently used.
func memoFor(seed int64) *seedMemo {
	shuffleStreams.mu.Lock()
	defer shuffleStreams.mu.Unlock()
	if m := shuffleStreams.cur; m != nil && m.seed == seed {
		return m
	}
	m := &seedMemo{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
	shuffleStreams.cur = m
	return m
}

// upTo returns the memo's draws, extended to more than n of them.
func (m *seedMemo) upTo(n int) []uint64 {
	shuffleStreams.mu.Lock()
	defer shuffleStreams.mu.Unlock()
	for len(m.vals) <= n {
		for range memoChunk {
			m.vals = append(m.vals, m.src.Uint64())
		}
	}
	return m.vals
}

// memoSource reads a seedMemo from its first draw on: a rand.Source64
// whose Int63 is Uint64 masked to 63 bits, as math/rand's own source
// defines it, so a rand.Rand over it draws what one over the seeded
// source would.
type memoSource struct {
	memo *seedMemo
	vals []uint64 // the prefix of memo.vals this reader has seen
	pos  int
}

func (s *memoSource) Uint64() uint64 {
	if s.pos == len(s.vals) {
		s.vals = s.memo.upTo(s.pos)
	}
	v := s.vals[s.pos]
	s.pos++
	return v
}

func (s *memoSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Seed restarts the reader at the first draw of seed's stream.
func (s *memoSource) Seed(seed int64) {
	*s = memoSource{memo: memoFor(seed)}
}
