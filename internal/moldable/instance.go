package moldable

import "fmt"

// Instance is a complete scheduling problem: m identical processors and a
// set of independent moldable tasks, all available at time 0 (the off-line
// model of the paper; release dates for the on-line extension live in
// cluster.Job).
type Instance struct {
	// M is the number of identical processors of the cluster.
	M int
	// Tasks is the job list. Task IDs must be unique.
	Tasks []Task
}

// NewInstance builds an instance and truncates every task's processing-time
// vector to at most m entries (a task never uses more processors than the
// machine offers). A negative m truncates nothing; Validate rejects it.
func NewInstance(m int, tasks []Task) *Instance {
	inst := &Instance{M: m, Tasks: make([]Task, len(tasks))}
	for i, t := range tasks {
		ct := t.Clone()
		if m >= 0 && len(ct.Times) > m {
			ct.Times = ct.Times[:m]
		}
		inst.Tasks[i] = ct
	}
	return inst
}

// N returns the number of tasks.
func (in *Instance) N() int { return len(in.Tasks) }

// Task returns the task with the given ID, or nil when absent.
func (in *Instance) Task(id int) *Task {
	for i := range in.Tasks {
		if in.Tasks[i].ID == id {
			return &in.Tasks[i]
		}
	}
	return nil
}

// Validate checks the instance: at least one processor, non-empty and valid
// tasks, unique IDs and no time vector longer than M.
func (in *Instance) Validate() error {
	if in.M < 1 {
		return fmt.Errorf("moldable: instance needs at least one processor, got %d", in.M)
	}
	if len(in.Tasks) == 0 {
		return fmt.Errorf("moldable: instance has no tasks")
	}
	seen := make(map[int]bool, len(in.Tasks))
	for i := range in.Tasks {
		t := &in.Tasks[i]
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("moldable: duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
		if len(t.Times) > in.M {
			return fmt.Errorf("moldable: task %d offers %d allocations but the machine has only %d processors", t.ID, len(t.Times), in.M)
		}
	}
	return nil
}
