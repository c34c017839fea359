package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"bicriteria/internal/cluster"
	"bicriteria/internal/slo"
)

// JobState is the lifecycle position of a submitted job. States only move
// forward: queued → batched → scheduled → running → (resubmitted →) done.
// The serve layer derives them from the trusted prefix of the replay of
// the accumulated stream (see Server.refresh), so every non-final state a
// client observes is exactly what the deterministic replay of the stream
// so far implies.
// A job killed by a fault-plan outage shows resubmitted — once killed, the
// visible state stays resubmitted through the retry's own batching and
// execution, until the retry completes.
type JobState int

const (
	// StateQueued: admitted, waiting for its shard's batcher to fire.
	StateQueued JobState = iota
	// StateBatched: part of a committed batch, not yet placed in time.
	StateBatched
	// StateScheduled: placed with a concrete start time in the future.
	StateScheduled
	// StateRunning: started, not yet completed, at the current virtual time.
	StateRunning
	// StateResubmitted: killed by an outage and re-enqueued; stays until
	// the retry completes.
	StateResubmitted
	// StateDone: completed; stretch and bounded slowdown are final.
	StateDone
)

// String returns the wire name of the state.
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateBatched:
		return "batched"
	case StateScheduled:
		return "scheduled"
	case StateRunning:
		return "running"
	case StateResubmitted:
		return "resubmitted"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// MarshalJSON encodes the state as its wire name.
func (s JobState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a wire name back into a state.
func (s *JobState) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for st := StateQueued; st <= StateDone; st++ {
		if st.String() == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("serve: unknown job state %q", name)
}

// JobStatus is the live view of one submitted job, as returned by
// GET /jobs/{id}. Virtual-time fields are meaningful from the state that
// first determines them: Cluster from routing, Start/End from scheduling,
// Wait/Stretch/BoundedSlowdown from completion.
type JobStatus struct {
	ID      int      `json:"id"`
	Name    string   `json:"name,omitempty"`
	Weight  float64  `json:"weight"`
	Release float64  `json:"release"`
	State   JobState `json:"state"`
	// Cluster is the shard the meta-scheduler routed the job to, -1 while
	// unknown. Batch is the shard-local batch index, -1 while unknown.
	Cluster int `json:"cluster"`
	Batch   int `json:"batch"`
	// Start and End are the job's realized execution window in virtual
	// time, known from StateScheduled on.
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
	// Wait is Start - Release; Stretch is flow over the job's fastest
	// possible execution time; BoundedSlowdown is the flow over
	// max(pmin, threshold), floored at 1. All three are final in StateDone.
	Wait            float64 `json:"wait,omitempty"`
	Stretch         float64 `json:"stretch,omitempty"`
	BoundedSlowdown float64 `json:"bounded_slowdown,omitempty"`
	// Resubmissions counts how many times the job was killed by an outage
	// and re-enqueued (zero on a fault-free service).
	Resubmissions int `json:"resubmissions,omitempty"`
}

// registry tracks every admitted job's status under one lock. States only
// upgrade: a trusted prefix can never move a job backwards, and the drain
// fixes everything at done.
type registry struct {
	mu   sync.RWMutex
	jobs map[int]*JobStatus
	// pmin caches each job's fastest possible execution time for stretch.
	pmin   map[int]float64
	counts [StateDone + 1]int
}

func newRegistry() *registry {
	return &registry{jobs: make(map[int]*JobStatus), pmin: make(map[int]float64)}
}

// has reports whether the ID was ever admitted.
func (r *registry) has(id int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.jobs[id]
	return ok
}

// add registers a freshly admitted job in StateQueued.
func (r *registry) add(id int, name string, weight, release, pmin float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs[id] = &JobStatus{
		ID: id, Name: name, Weight: weight, Release: release,
		State: StateQueued, Cluster: -1, Batch: -1,
	}
	r.pmin[id] = pmin
	r.counts[StateQueued]++
}

// get returns a copy of the job's status.
func (r *registry) get(id int) (JobStatus, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	j, ok := r.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return *j, true
}

// len returns the number of admitted jobs.
func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.jobs)
}

// stateCounts returns the number of jobs per lifecycle state.
func (r *registry) stateCounts() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.counts))
	for st := StateQueued; st <= StateDone; st++ {
		out[st.String()] = r.counts[st]
	}
	return out
}

// upgrade moves a job's state forward, never backwards.
func (r *registry) upgrade(j *JobStatus, st JobState) {
	if st > j.State {
		r.counts[j.State]--
		r.counts[st]++
		j.State = st
	}
}

// batched reports whether a trusted batch has taken the job in: only
// markBatched moves a job past queued, and every later mark concerns a
// batched job.
func (r *registry) batched(id int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	j, ok := r.jobs[id]
	return ok && j.State >= StateBatched
}

// setRouting records the meta-scheduler's cluster choice.
func (r *registry) setRouting(id, clusterIndex int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobs[id]; ok {
		j.Cluster = clusterIndex
	}
}

// markBatched records batch membership.
func (r *registry) markBatched(id, batch int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobs[id]; ok {
		j.Batch = batch
		r.upgrade(j, StateBatched)
	}
}

// markScheduled records a placement whose start is still in the future.
func (r *registry) markScheduled(id int, start, end float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobs[id]; ok {
		j.Start, j.End = start, end
		j.Wait = start - j.Release
		r.upgrade(j, StateScheduled)
	}
}

// markRunning records a placement that has started but not completed.
func (r *registry) markRunning(id int, start, end float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobs[id]; ok {
		j.Start, j.End = start, end
		j.Wait = start - j.Release
		r.upgrade(j, StateRunning)
	}
}

// markResubmitted records that the replay's trusted prefix saw the job
// killed and re-enqueued count times. The count only ever grows (prefix
// replays are monotone), and the state upgrade keeps the job visible as
// resubmitted until its retry completes.
func (r *registry) markResubmitted(id, count int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobs[id]; ok {
		if count > j.Resubmissions {
			j.Resubmissions = count
		}
		r.upgrade(j, StateResubmitted)
	}
}

// markDone records a completion and computes the per-job quality metrics.
func (r *registry) markDone(id int, start, end float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return
	}
	j.Start, j.End = start, end
	j.Wait = start - j.Release
	flow := end - j.Release
	if pmin := r.pmin[id]; pmin > 0 {
		j.Stretch = flow / pmin
	}
	j.BoundedSlowdown = cluster.BoundedSlowdown(flow, r.pmin[id])
	r.upgrade(j, StateDone)
}

// eachDone calls fn for every completed job in ascending job-id order:
// the feed of the /metrics distribution histograms. The fixed order keeps
// even the low bits of the histograms' floating-point sums identical
// between scrapes of equal state.
func (r *registry) eachDone(fn func(JobStatus)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]int, 0, len(r.jobs))
	for id, j := range r.jobs {
		if j.State == StateDone {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		fn(*r.jobs[id])
	}
}

// sloOutcomes builds the SLO engine's input from the completed jobs, in
// ascending job ID. Unfinished jobs are left out: a live service should
// not count a job still in flight as a deadline miss.
func (r *registry) sloOutcomes() []slo.JobOutcome {
	var out []slo.JobOutcome
	r.eachDone(func(j JobStatus) {
		out = append(out, slo.JobOutcome{
			Job: j.ID, Cluster: j.Cluster, Release: j.Release, Pmin: r.pmin[j.ID],
			Start: j.Start, End: j.End, Done: true,
		})
	})
	return out
}
