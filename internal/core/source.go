package core

import "math/rand"

// nodeSource is math/rand's additive lagged-Fibonacci generator (lags 607
// and 273, Mitchell and Reeds) with a cheaper Seed: every stream it yields
// is bit-identical to rand.NewSource(seed)'s, so a node's trajectory does
// not depend on which of the two seeded it.
//
// math/rand seeds its 607-word register from 1 841 steps of the Park–Miller
// generator x' = 48271·x mod (2^31−1), each step two integer divisions
// (Schrage's method), each waiting on the step before. Here step k is
// 48271^k·x₀, read from a power table built once (stepPow) and reduced
// modulo the Mersenne prime with a multiply, a mask, a shift and an add, so
// the steps are independent of one another.
//
// tap and feed are int32 so the struct is exactly 4 864 B, a Go allocation
// size class; with int fields it would be 4 872 B and round up to 5 376 B.
type nodeSource struct {
	tap  int32
	feed int32
	vec  [srcLen]int64
}

const (
	srcLen  = 607
	srcTap  = 273
	pmMod   = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime
	pmMul   = 48271
	pmSkip  = 20       // steps math/rand discards before the first word
	defSeed = 89482311 // math/rand's replacement for a seed ≡ 0
)

var (
	// stepPow[i][j] = 48271^(pmSkip+1+3i+j) mod (2^31−1): register word
	// i is built from steps 3i, 3i+1 and 3i+2 after the skipped ones.
	stepPow [srcLen][3]uint64
	// cooked is math/rand's unexported rngCooked table, which it XORs
	// into every seeded register word.
	cooked [srcLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k <= pmSkip; k++ {
		p = pmMulMod(p, pmMul)
	}
	for i := range stepPow {
		for j := range stepPow[i] {
			stepPow[i][j] = p
			p = pmMulMod(p, pmMul)
		}
	}
	cooked = recoverCooked()
}

// recoverCooked derives math/rand's rngCooked from its public output: the
// first 607 draws of a seeded source overwrite each register word once, so
// running the recurrence backwards over them yields the seeded register,
// and XOR with our own uncooked seeding of the same seed leaves the table.
func recoverCooked() [srcLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var s nodeSource
	s.tap, s.feed = 0, srcLen-srcTap
	for n := 0; n < srcLen; n++ {
		s.tap = (s.tap + srcLen - 1) % srcLen
		s.feed = (s.feed + srcLen - 1) % srcLen
		s.vec[s.feed] = int64(src.Uint64())
	}
	// Undo the 607 draws, last first: draw n set vec[feed] += vec[tap].
	for n := 0; n < srcLen; n++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % srcLen
		s.feed = (s.feed + 1) % srcLen
	}
	var raw [srcLen]int64
	seedWords(&raw, normSeed(seed), &[srcLen]int64{})
	for i := range raw {
		raw[i] ^= s.vec[i]
	}
	return raw
}

// pmMulMod returns a·b mod (2^31−1) for a, b < 2^31: one fold of the high
// bits onto the low ones and one conditional subtraction.
func pmMulMod(a, b uint64) uint64 {
	x := a * b
	x = x&pmMod + x>>31
	if x >= pmMod {
		x -= pmMod
	}
	return x
}

// normSeed maps an int64 seed onto the Park–Miller state math/rand starts
// from: seed mod (2^31−1) in [1, 2^31−2].
func normSeed(seed int64) uint64 {
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = defSeed
	}
	return uint64(seed)
}

// seedWords fills vec with the register math/rand seeds from Park–Miller
// state x0, each word XORed with the same word of mask.
func seedWords(vec *[srcLen]int64, x0 uint64, mask *[srcLen]int64) {
	for i := range vec {
		p := &stepPow[i]
		u := int64(pmMulMod(p[0], x0)) << 40
		u ^= int64(pmMulMod(p[1], x0)) << 20
		u ^= int64(pmMulMod(p[2], x0))
		vec[i] = u ^ mask[i]
	}
}

func newSource(seed int64) *nodeSource {
	s := new(nodeSource)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source with math/rand's normalisation.
func (s *nodeSource) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seedWords(&s.vec, normSeed(seed), &cooked)
}

// Int63 implements rand.Source.
func (s *nodeSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 implements rand.Source64.
func (s *nodeSource) Uint64() uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += srcLen
	}
	if feed < 0 {
		feed += srcLen
	}
	s.tap, s.feed = tap, feed
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x)
}
