package kernels

import "math"

// Monte Carlo Pi estimation (paper §IV-B): draw points uniformly in
// the unit square and count those inside the quarter circle;
// pi ~= 4 * inside / total with error O(1/sqrt(N)). This port follows
// Hadoop's PiEstimator sample structure but uses a splitmix64
// generator so every mapper gets an independent, reproducible stream.

// piGamma is the splitmix64 state increment. The generator's state
// after k next() calls is exactly seed + k*piGamma, which makes the
// sample stream seekable in O(1): each sample consumes two draws, so a
// worker can resume the stream at any sample index without replaying
// the prefix (CountInsideFrom).
const piGamma = 0x9e3779b97f4a7c15

// piRNG is a self-contained splitmix64 (duplicated from internal/sim
// deliberately: the kernel must not depend on simulation packages,
// exactly as the SPE kernel could not link against Hadoop).
type piRNG struct{ state uint64 }

func (r *piRNG) next() uint64 {
	r.state += piGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *piRNG) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// MixSeed derives an independent stream seed from a base seed and a
// worker/mapper index. A plain additive offset would make stream i of
// mapper j collide with stream i+1 of mapper j-1; the splitmix64
// finalizer decorrelates them.
func MixSeed(base, index uint64) uint64 {
	z := base ^ (index+1)*0xd6e8feb86659fd93
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CountInside draws n points seeded by seed and returns how many fall
// inside the quarter circle. It is the map() kernel of the Pi job.
func CountInside(seed uint64, n int64) int64 {
	rng := piRNG{state: seed}
	var inside int64
	for i := int64(0); i < n; i++ {
		x := rng.float64()
		y := rng.float64()
		if x*x+y*y <= 1.0 {
			inside++
		}
	}
	return inside
}

// CountInsideFrom counts how many of samples [skip, skip+n) of the
// stream seeded by seed fall inside the quarter circle. The splitmix64
// state advances by a fixed increment per draw and each sample takes
// two draws, so seeking is a single multiply — the per-sample decisions
// are bit-identical to the corresponding slice of a full CountInside
// pass. Splitting [0, total) into contiguous ranges and summing
// CountInsideFrom over them therefore reproduces CountInside(seed,
// total) exactly; this is what lets an accelerated runtime fan one map
// task out over SPEs without changing the task's result.
func CountInsideFrom(seed uint64, skip, n int64) int64 {
	return CountInside(seed+2*uint64(skip)*piGamma, n)
}

// DefaultSeed is the base seed of a job that names none (Seed 0): the
// paper's year. Pi splits and the sort's key sampler draw from it.
const DefaultSeed = 2009

// SampleSplit is one canonical Monte Carlo map task: an independent
// seed domain plus a sample count.
type SampleSplit struct {
	Seed    uint64
	Samples int64
}

// SplitSamples expands a Pi job into its canonical task list: total
// samples split as evenly as possible over n tasks (earlier tasks take
// the remainder, every task draws at least one sample), task i seeded
// from the domain MixSeed(seed, i). Every runner — live, simulated and
// networked — executes exactly this decomposition, which is what makes
// Pi results bit-identical across backends; there must be no second
// copy of this logic.
func SplitSamples(total int64, n int, seed uint64) []SampleSplit {
	if n <= 0 {
		n = 1
	}
	per := total / int64(n)
	rem := total % int64(n)
	tasks := make([]SampleSplit, n)
	for i := range tasks {
		s := per
		if int64(i) < rem {
			s++
		}
		if s == 0 {
			s = 1
		}
		tasks[i] = SampleSplit{Seed: MixSeed(seed, uint64(i)), Samples: s}
	}
	return tasks
}

// EstimatePi converts an (inside, total) tally into a Pi estimate.
func EstimatePi(inside, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 4.0 * float64(inside) / float64(total)
}

// PiErrorBound returns the expected-order error of an n-sample
// estimate, O(1/sqrt(N)) as the paper states ("an expected error of
// O(1/sqrt(N))").
func PiErrorBound(n int64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return 1.0 / math.Sqrt(float64(n))
}
