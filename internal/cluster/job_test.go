package cluster

import (
	"fmt"
	"testing"

	"bicriteria/internal/moldable"
)

// TestTableForkIsolation checks the fork contract of Table: a fork reads
// its parent's jobs, rejects them as duplicates, and keeps its own feeds
// out of the parent.
func TestTableForkIsolation(t *testing.T) {
	job := func(id int) Job { return Job{Task: moldable.Sequential(id, 1, 2), Release: float64(id)} }
	fact := func(j *Job) float64 { return j.Release }
	parent := NewTable[float64]()
	if err := parent.Enroll("test", []Job{job(1), job(2)}, 0, fact); err != nil {
		t.Fatal(err)
	}
	fork := parent.Fork().Fork()
	if v, ok := fork.Get(2); !ok || v != 2 {
		t.Fatalf("fork reads job 2 as (%g, %t), want (2, true)", v, ok)
	}
	if err := fork.Enroll("test", []Job{job(3), job(1)}, 0, fact); err == nil {
		t.Fatal("fork accepted the parent's job 1 again")
	}
	if _, ok := fork.Get(3); ok {
		t.Fatal("a rejected Enroll left job 3 in the fork")
	}
	if err := fork.Enroll("test", []Job{job(3)}, 0, fact); err != nil {
		t.Fatal(err)
	}
	if _, ok := parent.Get(3); ok {
		t.Fatal("the fork's job 3 shows through to the parent")
	}
}

// TestMergeFuncKeepsFirstOnTies checks the merge order: by cmp, the first
// slice's element first among equals.
func TestMergeFuncKeepsFirstOnTies(t *testing.T) {
	type kv struct{ k, v int }
	byKey := func(a, b kv) int { return a.k - b.k }
	got := MergeFunc([]kv{{1, 0}, {3, 0}}, []kv{{1, 1}, {2, 1}, {3, 1}}, byKey)
	want := []kv{{1, 0}, {1, 1}, {2, 1}, {3, 0}, {3, 1}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}
