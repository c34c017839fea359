package faults

import (
	"fmt"
	"math"
	"math/rand"

	"bicriteria/internal/workload"
)

// Default shape parameters of the failure model. A Weibull shape below 1
// gives the decreasing hazard rate observed on production hardware (young
// systems and freshly repaired nodes fail more); repairs follow a
// lognormal law (most are quick, a few drag on).
const (
	// DefaultShape is the Weibull shape k of the time-between-failures law.
	DefaultShape = 0.7
	// DefaultRepairSigma is the lognormal sigma of the repair-duration law.
	DefaultRepairSigma = 0.8
)

// Seed salts decorrelating the independent failure streams derived from
// the single user-facing seed.
const (
	nodeSeedSalt       = 0x6C62272E07BB0142
	correlatedSeedSalt = 0x27D4EB2F165667C5
	shardSeedSalt      = 0x51AFD7ED558CCD25
)

// Config drives the fault-event generator. The zero value of every
// optional field keeps its default; an MTBF of zero disables the matching
// failure class entirely, so the zero Config generates the empty plan.
type Config struct {
	// Seed keys every failure stream. Two configs differing only in Seed
	// give independent scenarios; equal configs give deep-equal plans.
	Seed int64
	// Horizon bounds the generated windows: no failure starts at or after
	// it. It must be positive when any MTBF is set.
	Horizon float64
	// Clusters lists the processor count of every shard (one entry, for a
	// standalone cluster).
	Clusters []int
	// MTBF is the mean time between failures of one node; zero disables
	// independent node crashes.
	MTBF float64
	// Shape is the Weibull shape of the time-between-failures law; zero
	// means DefaultShape. Shapes below 1 are heavy-tailed.
	Shape float64
	// RepairMean is the mean repair duration of a crashed node; zero means
	// MTBF/10 (a 90% availability target per node).
	RepairMean float64
	// RepairSigma is the lognormal sigma of the repair law; zero means
	// DefaultRepairSigma.
	RepairSigma float64
	// CorrelatedMTBF, when positive, adds per-cluster correlated failure
	// events (a switch or power domain dying): every event takes down a
	// contiguous group of CorrelatedSize nodes for one repair window.
	CorrelatedMTBF float64
	// CorrelatedSize is the width of a correlated failure group; zero
	// means a quarter of the cluster (at least 2 nodes).
	CorrelatedSize int
	// ShardMTBF, when positive, adds whole-shard outages (the grid loses a
	// site): mean time between outages per shard.
	ShardMTBF float64
	// ShardRepairMean is the mean shard outage duration; zero means
	// ShardMTBF/10.
	ShardRepairMean float64
}

// validate checks the configuration.
func (c Config) validate() error {
	if len(c.Clusters) == 0 {
		return fmt.Errorf("faults: config lists no clusters")
	}
	for i, m := range c.Clusters {
		if m < 1 {
			return fmt.Errorf("faults: cluster %d has %d processors", i, m)
		}
	}
	for _, f := range []struct {
		v    float64
		what string
	}{
		{c.MTBF, "MTBF"},
		{c.Shape, "shape"},
		{c.RepairMean, "repair mean"},
		{c.RepairSigma, "repair sigma"},
		{c.CorrelatedMTBF, "correlated MTBF"},
		{c.ShardMTBF, "shard MTBF"},
		{c.ShardRepairMean, "shard repair mean"},
		{c.Horizon, "horizon"},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: %s must be non-negative and finite, got %g", f.what, f.v)
		}
	}
	if c.CorrelatedSize < 0 {
		return fmt.Errorf("faults: negative correlated group size %d", c.CorrelatedSize)
	}
	if (c.MTBF > 0 || c.CorrelatedMTBF > 0 || c.ShardMTBF > 0) && c.Horizon <= 0 {
		return fmt.Errorf("faults: a positive horizon is required when an MTBF is set")
	}
	return nil
}

// Generate builds the deterministic fault plan of the configuration. Every
// node, correlated group and shard draws from its own seeded stream, so
// the plan is a pure function of the config: same config, same plan,
// whatever the call order or the machine.
func Generate(cfg Config) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plan := &Plan{}
	gap := workload.NewSampler(workload.DistWeibull, shapeOrDefault(cfg.Shape))
	repair := workload.NewSampler(workload.DistLognormal, sigmaOrDefault(cfg.RepairSigma))

	if cfg.MTBF > 0 {
		repairMean := cfg.RepairMean
		if repairMean == 0 {
			repairMean = cfg.MTBF / 10
		}
		for c, m := range cfg.Clusters {
			for p := 0; p < m; p++ {
				r := rand.New(rand.NewSource(cfg.Seed ^ nodeSeedSalt ^ mix(c, p)))
				for _, w := range renewalWindows(r, gap, repair, cfg.MTBF, repairMean, cfg.Horizon) {
					plan.Nodes = append(plan.Nodes, NodeOutage{Cluster: c, Proc: p, Start: w[0], End: w[1]})
				}
			}
		}
	}

	if cfg.CorrelatedMTBF > 0 {
		repairMean := cfg.RepairMean
		if repairMean == 0 {
			repairMean = cfg.CorrelatedMTBF / 10
		}
		for c, m := range cfg.Clusters {
			size := cfg.CorrelatedSize
			if size == 0 {
				size = m / 4
			}
			if size < 2 {
				size = 2
			}
			if size > m {
				size = m
			}
			r := rand.New(rand.NewSource(cfg.Seed ^ correlatedSeedSalt ^ mix(c, 0)))
			for i, w := range renewalWindows(r, gap, repair, cfg.CorrelatedMTBF, repairMean, cfg.Horizon) {
				// Rotate the afflicted group across the machine so repeated
				// correlated events do not always hit the same nodes.
				base := (i * size) % m
				for j := 0; j < size; j++ {
					plan.Nodes = append(plan.Nodes, NodeOutage{Cluster: c, Proc: (base + j) % m, Start: w[0], End: w[1]})
				}
			}
		}
	}

	if cfg.ShardMTBF > 0 {
		repairMean := cfg.ShardRepairMean
		if repairMean == 0 {
			repairMean = cfg.ShardMTBF / 10
		}
		for c := range cfg.Clusters {
			r := rand.New(rand.NewSource(cfg.Seed ^ shardSeedSalt ^ mix(c, 0)))
			for _, w := range renewalWindows(r, gap, repair, cfg.ShardMTBF, repairMean, cfg.Horizon) {
				plan.Shards = append(plan.Shards, ShardOutage{Cluster: c, Start: w[0], End: w[1]})
			}
		}
	}

	plan.normalize()
	if err := plan.Validate(cfg.Clusters); err != nil {
		return nil, err
	}
	return plan, nil
}

func shapeOrDefault(shape float64) float64 {
	if shape == 0 {
		return DefaultShape
	}
	return shape
}

func sigmaOrDefault(sigma float64) float64 {
	if sigma == 0 {
		return DefaultRepairSigma
	}
	return sigma
}

// mix folds a (cluster, index) pair into a seed salt.
func mix(cluster, index int) int64 {
	h := uint64(cluster+1)*0x100000001B3 + uint64(index+1)*0x9E3779B97F4A7C15
	return int64(h)
}

// renewalWindows draws a renewal process of down windows: Weibull gaps of
// mean mtbf between a repair completing and the next crash, lognormal
// repair durations of mean repairMean, until the horizon. Repair
// durations are floored at a small fraction of the mean so a window is
// never empty.
func renewalWindows(r *rand.Rand, gap, repair func(*rand.Rand) float64, mtbf, repairMean, horizon float64) [][2]float64 {
	var out [][2]float64
	t := 0.0
	for {
		t += gap(r) * mtbf
		if t >= horizon {
			return out
		}
		d := repair(r) * repairMean
		if min := repairMean / 100; d < min {
			d = min
		}
		out = append(out, [2]float64{t, t + d})
		t += d
	}
}
