package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"bicriteria/internal/moldable"
)

// Job is a moldable task together with its submission (release) date.
type Job struct {
	Task    moldable.Task
	Release float64
}

// CompareJobs orders jobs by release date, then task ID: the deterministic
// stream order in which the cluster engine admits and the grid router
// routes a stream.
func CompareJobs(a, b Job) int {
	return cmp.Or(cmp.Compare(a.Release, b.Release), cmp.Compare(a.Task.ID, b.Task.ID))
}

// SortedCopy returns the jobs in stream order (release date, then task ID),
// leaving the input untouched.
func SortedCopy(jobs []Job) []Job {
	sorted := slices.Clone(jobs)
	slices.SortFunc(sorted, CompareJobs)
	return sorted
}

// MergeFunc merges two slices already sorted by cmp, a's element first on
// ties. Neither input is written: the result is a new slice, or one of the
// inputs when the other is empty.
func MergeFunc[T any](a, b []T, cmp func(T, T) int) []T {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if cmp(b[0], a[0]) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Table records the jobs fed to a resumable replay, keyed by task ID, with
// one entry each. A fork of the table reads its parent's entries in place
// and keeps the jobs fed to the fork apart, so forking copies nothing; the
// price is that the parent must not be fed while a fork of it is in use.
type Table[V any] struct {
	own       map[int]V
	inherited []map[int]V
}

// NewTable returns an empty table.
func NewTable[V any]() Table[V] { return Table[V]{own: make(map[int]V)} }

// Get returns a recorded job's entry.
func (t Table[V]) Get(id int) (V, bool) {
	if v, ok := t.own[id]; ok {
		return v, true
	}
	for _, m := range t.inherited {
		if v, ok := m[id]; ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Fork returns a table holding t's jobs, to which later Enrolls of either
// side do not show through.
func (t Table[V]) Fork() Table[V] {
	return Table[V]{own: make(map[int]V), inherited: append(t.inherited[:len(t.inherited):len(t.inherited)], t.own)}
}

// Enroll validates jobs joining a resumable replay and records them with
// the entry fact computes. Each job must be a valid task released at or
// after both 0 and boundary, with an ID neither in the table nor repeated
// in the call. On the first bad job nothing is recorded, and the error,
// prefixed with who (e.g. "cluster"), names it.
func (t Table[V]) Enroll(who string, jobs []Job, boundary float64, fact func(*Job) V) error {
	for i := range jobs {
		j := &jobs[i]
		err := j.Task.Validate()
		switch {
		case err != nil:
		case j.Release < 0:
			err = fmt.Errorf("%s: job %d has negative release date", who, j.Task.ID)
		case !(j.Release >= boundary):
			err = fmt.Errorf("%s: job %d released at %g, before the replay's boundary %g", who, j.Task.ID, j.Release, boundary)
		default:
			if _, dup := t.Get(j.Task.ID); dup {
				err = fmt.Errorf("%s: duplicate job ID %d in the stream", who, j.Task.ID)
			}
		}
		if err != nil {
			for _, done := range jobs[:i] {
				delete(t.own, done.Task.ID)
			}
			return err
		}
		t.own[j.Task.ID] = fact(j)
	}
	return nil
}
