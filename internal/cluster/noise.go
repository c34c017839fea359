package cluster

import "math/rand"

// The constants of math/rand's seeding (math/rand/rng.go): the Lehmer
// generator x_{k+1} = 48271·x_k mod (2^31−1) that fills the source's
// 607-word register, the seed that stands in for 0, and the two entries
// of the register's fixed mask rngCooked the first draw reads.
const (
	lehmerMod  = 1<<31 - 1
	lehmerMul  = 48271
	lehmerZero = 89482311
	cooked333  = -4633371852008891965
	cooked606  = 4152330101494654406
)

// lehmerPow holds 48271^k mod (2^31−1) for the six k the first draw
// needs: 1020–1022 for register word 333 and 1839–1841 for word 606.
var lehmerPow = func() (p [6]int64) {
	exps := [6]int{1020, 1021, 1022, 1839, 1840, 1841}
	x := int64(1)
	for k, j := 1, 0; j < len(p); k++ {
		x = x * lehmerMul % lehmerMod
		if k == exps[j] {
			p[j] = x
			j++
		}
	}
	return p
}()

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64() without
// building the generator: O(1) instead of seeding 607 words.
//
// Seeding reduces the seed to s = seed mod (2^31−1), made non-negative,
// with 0 replaced by 89482311, and sets register word i to
// x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i], where
// x_k = s·48271^k mod (2^31−1). The first draw is word 333 plus word 606
// (wrapping), masked to 63 bits.
func firstFloat64(seed int64) float64 {
	s := seed % lehmerMod
	if s < 0 {
		s += lehmerMod
	}
	if s == 0 {
		s = lehmerZero
	}
	var x [6]int64
	for j, p := range lehmerPow {
		x[j] = s * p % lehmerMod
	}
	w333 := x[0]<<40 ^ x[1]<<20 ^ x[2] ^ cooked333
	w606 := x[3]<<40 ^ x[4]<<20 ^ x[5] ^ cooked606
	return float64OrRedraw((w333+w606)&(1<<63-1), seed)
}

// float64OrRedraw is Float64's division of the first 63-bit draw v by
// 2^63. When the quotient rounds to 1, Float64 draws again; that case
// (about one seed in 2^54) goes to the real generator.
func float64OrRedraw(v, seed int64) float64 {
	if f := float64(v) / (1 << 63); f < 1 {
		return f
	}
	return rand.New(rand.NewSource(seed)).Float64()
}
