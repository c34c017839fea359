package cluster

import (
	"fmt"
	"maps"
	"math"

	"bicriteria/internal/moldable"
)

// DefaultMaxRetries bounds how many times one job may be killed by
// outages and resubmitted before the engine abandons it as lost. The
// default is generous: with a finite fault plan every job is eventually
// rescheduled onto a healthy window, so losses only happen under
// pathological plans.
const DefaultMaxRetries = 16

// minRemainingFrac floors the checkpoint-credited remainder of a
// resubmitted job: however much progress was credited, restarting a job
// still costs at least this fraction of its processing times (checkpoint
// load, requeue overhead) — and the floor keeps every time vector
// strictly positive.
const minRemainingFrac = 0.05

// ReplanKind selects how a job killed by an outage is resubmitted.
type ReplanKind int

const (
	// ReplanRestart resubmits the job from scratch: all partial work is
	// lost (the classic fail-restart model).
	ReplanRestart ReplanKind = iota
	// ReplanCheckpoint credits the killed attempt's completed fraction:
	// the resubmitted job's processing times shrink by Credit times the
	// fraction of the run that finished before the crash, modelling
	// periodic checkpoints the restart can resume from.
	ReplanCheckpoint
)

// String returns the CLI name of the replan kind.
func (k ReplanKind) String() string {
	switch k {
	case ReplanRestart:
		return "restart"
	case ReplanCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("ReplanKind(%d)", int(k))
	}
}

// ParseReplanKind converts a CLI string into a ReplanKind.
func ParseReplanKind(s string) (ReplanKind, error) {
	switch s {
	case "", "restart":
		return ReplanRestart, nil
	case "checkpoint":
		return ReplanCheckpoint, nil
	}
	return 0, fmt.Errorf("cluster: unknown replan policy %q (want restart or checkpoint)", s)
}

// ReplanPolicy decides what a killed job looks like when it rejoins the
// queue. The zero value is restart-from-scratch.
type ReplanPolicy struct {
	// Kind selects the model.
	Kind ReplanKind
	// Credit, for ReplanCheckpoint, is the fraction of the completed work
	// that survives the crash, in [0, 1]. Zero means 1 (perfect
	// checkpoints); ReplanRestart ignores it.
	Credit float64
}

// validate checks the policy.
func (p ReplanPolicy) validate() error {
	switch p.Kind {
	case ReplanRestart, ReplanCheckpoint:
	default:
		return fmt.Errorf("cluster: unknown replan kind %d", int(p.Kind))
	}
	if p.Credit < 0 || p.Credit > 1 || math.IsNaN(p.Credit) {
		return fmt.Errorf("cluster: checkpoint credit must lie in [0, 1], got %g", p.Credit)
	}
	return nil
}

// resubmit builds the task to re-enqueue after a kill that completed
// fracDone of its realized run. Scaling the whole time vector by one
// factor preserves the moldable monotony invariants, exactly like the
// workload generator's runtime tails.
func (p ReplanPolicy) resubmit(t moldable.Task, fracDone float64) moldable.Task {
	cp := t.Clone()
	if p.Kind != ReplanCheckpoint {
		return cp
	}
	credit := p.Credit
	if credit == 0 {
		credit = 1
	}
	if fracDone < 0 {
		fracDone = 0
	}
	if fracDone > 1 {
		fracDone = 1
	}
	scale := 1 - credit*fracDone
	if scale < minRemainingFrac {
		scale = minRemainingFrac
	}
	for k := range cp.Times {
		cp.Times[k] *= scale
	}
	return cp
}

// KillEvent records one job killed by an outage during a run, in absolute
// time: the attempt started at Start and died at Time, during batch Batch.
type KillEvent struct {
	TaskID int
	Batch  int
	Start  float64
	Time   float64
}

// faultState is the per-run bookkeeping of the recovery machinery.
type faultState struct {
	replan     ReplanPolicy
	maxRetries int
	// retries counts the kills of each job so far; killedEver marks jobs
	// with at least one kill (to detect recoveries on completion).
	retries    map[int]int
	killedEver map[int]bool
}

// clone copies the bookkeeping for a session fork.
func (fs *faultState) clone() *faultState {
	c := *fs
	c.retries = maps.Clone(fs.retries)
	c.killedEver = maps.Clone(fs.killedEver)
	return &c
}

func newFaultState(replan ReplanPolicy, maxRetries int) *faultState {
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	return &faultState{
		replan:     replan,
		maxRetries: maxRetries,
		retries:    make(map[int]int),
		killedEver: make(map[int]bool),
	}
}
