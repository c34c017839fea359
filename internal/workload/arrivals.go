package workload

import (
	"fmt"
	"math"
	"math/rand"

	"bicriteria/internal/moldable"
)

// Arrival is a generated job together with its submission time: the input of
// the on-line batch framework and of the cluster engine, without tying this
// package to either.
type Arrival struct {
	Task   moldable.Task
	Submit float64
}

// Distribution selects a sampling law for inter-arrival gaps and runtime
// multipliers. The zero value keeps the default behaviour of the field it
// configures (exponential gaps, untouched runtimes).
type Distribution int

const (
	// DistDefault keeps the field's default: exponential inter-arrival gaps
	// (a Poisson process) or no runtime scaling.
	DistDefault Distribution = iota
	// DistExponential samples from an exponential law (memoryless, the
	// paper's implicit arrival model).
	DistExponential
	// DistLognormal samples from a lognormal law: moderate heavy tail,
	// classic model for bursty job submission gaps and runtimes.
	DistLognormal
	// DistWeibull samples from a Weibull law; shapes below 1 give the
	// heavy-tailed, high-variance traces observed on production clusters.
	DistWeibull
)

// String returns the CLI name of the distribution.
func (d Distribution) String() string {
	switch d {
	case DistDefault:
		return "default"
	case DistExponential:
		return "exponential"
	case DistLognormal:
		return "lognormal"
	case DistWeibull:
		return "weibull"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// ParseDistribution converts a CLI string into a Distribution.
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "", "default":
		return DistDefault, nil
	case "exponential", "exp", "poisson":
		return DistExponential, nil
	case "lognormal", "lognorm":
		return DistLognormal, nil
	case "weibull":
		return DistWeibull, nil
	}
	return 0, fmt.Errorf("workload: unknown distribution %q (want exponential, lognormal or weibull)", s)
}

// Default shape parameters of the heavy-tailed laws: a lognormal sigma of
// 1.5 and a Weibull shape of 0.5 both give the strongly bursty traces the
// grid stress tests need, while keeping the mean finite and controlled.
const (
	defaultLognormalSigma = 1.5
	defaultWeibullShape   = 0.5
)

// ArrivalConfig drives the generation of an on-line job stream: tasks come
// from one of the paper's workload families and submission times follow a
// renewal process (Poisson by default, optionally heavy-tailed), optionally
// clustered into bursts (many users submitting at the same instant, the
// hardest case for batch schedulers).
type ArrivalConfig struct {
	// Workload generates the tasks (kind, machine size, number of jobs,
	// seed). The arrival process derives its own random stream from the
	// same seed, so a config identifies the full stream.
	Workload Config
	// Rate is the mean number of jobs submitted per time unit (lambda of
	// the arrival process). It must be positive. The inter-burst gaps are
	// scaled so the long-run job rate stays Rate whatever the distribution.
	Rate float64
	// BurstSize groups submissions: values above 1 make jobs arrive in
	// bursts of this size sharing one submission instant, with the
	// inter-burst gaps scaled so the long-run job rate stays Rate. Zero or
	// one keeps independent arrivals.
	BurstSize int
	// Interarrival selects the law of the inter-burst gaps. DistDefault and
	// DistExponential give the Poisson process; DistLognormal and
	// DistWeibull give heavy-tailed, bursty gap sequences with the same
	// mean.
	Interarrival Distribution
	// InterarrivalShape tunes the heavy-tailed gap laws: the sigma of the
	// lognormal or the shape k of the Weibull. Zero picks the defaults
	// (sigma 1.5, k 0.5). Ignored by the exponential law.
	InterarrivalShape float64
	// RuntimeTail, when not DistDefault, scales every task's whole
	// processing-time vector by a random factor of mean 1 drawn from the
	// law: heavy-tailed realized runtimes on top of the workload family.
	// Scaling the full vector preserves the moldable monotony invariants.
	RuntimeTail Distribution
	// RuntimeTailShape tunes the runtime law like InterarrivalShape.
	RuntimeTailShape float64
}

// Seed salts decorrelating the arrival-time and runtime-scaling streams
// from the task stream while keeping all three a function of the single
// user-facing seed: the task stream draws from Seed itself, the arrival
// instants from Seed ^ arrivalSeedSalt and the runtime-tail factors from
// Seed ^ runtimeSeedSalt (cmd/bicrit's package doc describes the
// derivation).
const (
	arrivalSeedSalt = 0x5DEECE66D
	runtimeSeedSalt = 0x2545F4914F6CDD1D
)

// Validate checks the configuration.
func (c ArrivalConfig) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Rate <= 0 {
		return fmt.Errorf("workload: arrival rate must be positive, got %g", c.Rate)
	}
	if c.BurstSize < 0 {
		return fmt.Errorf("workload: negative burst size %d", c.BurstSize)
	}
	for _, d := range []struct {
		dist  Distribution
		shape float64
		what  string
	}{
		{c.Interarrival, c.InterarrivalShape, "interarrival"},
		{c.RuntimeTail, c.RuntimeTailShape, "runtime-tail"},
	} {
		switch d.dist {
		case DistDefault, DistExponential, DistLognormal, DistWeibull:
		default:
			return fmt.Errorf("workload: unknown %s distribution %d", d.what, int(d.dist))
		}
		if d.shape < 0 || math.IsNaN(d.shape) || math.IsInf(d.shape, 0) {
			return fmt.Errorf("workload: %s shape must be non-negative and finite, got %g", d.what, d.shape)
		}
	}
	return nil
}

// NewSampler returns a deterministic mean-1 sampler for the distribution,
// or nil for DistDefault: the law behind the arrival and runtime-tail
// streams, exported so other subsystems (the fault-event generator) can
// draw from exactly the same families. Scale the samples to choose a mean.
func NewSampler(dist Distribution, shape float64) func(r *rand.Rand) float64 {
	return sampler(dist, shape)
}

// sampler returns a deterministic mean-1 sampler for the distribution, or
// nil when the law is DistDefault and defaults to nothing (runtime case
// handles nil as "no scaling").
func sampler(dist Distribution, shape float64) func(r *rand.Rand) float64 {
	switch dist {
	case DistLognormal:
		sigma := shape
		if sigma == 0 {
			sigma = defaultLognormalSigma
		}
		// mean of exp(mu + sigma Z) is exp(mu + sigma^2/2) = 1 for
		// mu = -sigma^2/2.
		mu := -sigma * sigma / 2
		return func(r *rand.Rand) float64 {
			return math.Exp(mu + sigma*r.NormFloat64())
		}
	case DistWeibull:
		k := shape
		if k == 0 {
			k = defaultWeibullShape
		}
		// mean of scale * (-ln U)^(1/k) is scale * Gamma(1 + 1/k).
		scale := 1 / math.Gamma(1+1/k)
		return func(r *rand.Rand) float64 {
			u := 1 - r.Float64() // in (0, 1]
			return scale * math.Pow(-math.Log(u), 1/k)
		}
	case DistExponential:
		return func(r *rand.Rand) float64 { return r.ExpFloat64() }
	}
	return nil
}

// GenerateArrivals builds a deterministic on-line job stream: N tasks from
// the configured workload family, submitted at renewal-process instants
// (Poisson or heavy-tailed). Arrivals are returned in non-decreasing
// submission order.
func GenerateArrivals(cfg ArrivalConfig) ([]Arrival, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inst, err := Generate(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if scale := sampler(cfg.RuntimeTail, cfg.RuntimeTailShape); scale != nil {
		r := rand.New(rand.NewSource(cfg.Workload.Seed ^ runtimeSeedSalt))
		for i := range inst.Tasks {
			f := scale(r)
			if f < moldable.Eps {
				f = moldable.Eps
			}
			for k := range inst.Tasks[i].Times {
				inst.Tasks[i].Times[k] *= f
			}
		}
	}
	burst := cfg.BurstSize
	if burst < 1 {
		burst = 1
	}
	gap := sampler(cfg.Interarrival, cfg.InterarrivalShape)
	if gap == nil {
		gap = sampler(DistExponential, 0)
	}
	r := rand.New(rand.NewSource(cfg.Workload.Seed ^ arrivalSeedSalt))
	arrivals := make([]Arrival, len(inst.Tasks))
	now := 0.0
	for i, t := range inst.Tasks {
		if i%burst == 0 {
			// One mean-1 gap per burst, scaled by the burst size over the
			// rate so the long-run job rate stays Rate.
			now += gap(r) * float64(burst) / cfg.Rate
		}
		arrivals[i] = Arrival{Task: t, Submit: now}
	}
	return arrivals, nil
}
