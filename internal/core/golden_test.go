package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"bicriteria/internal/dualapprox"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestDEMTGolden pins the bits of DEMT, of the two-shelf dual
// approximation and of the makespan lower bound on every workload family at
// m = 16 and m = 200, under both selection modes and every compaction
// mode: each float is written as its shortest exact spelling, and the
// schedules and batches as a digest of their every field. It also pins, on
// a list of invalid instances, the bound's value and the error text of
// TwoShelf and ScheduleContext. Any change to the arithmetic of the batch
// geometry, the fit queries or the validation shows up here.
func TestDEMTGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# kind m n | lower_bound | two_shelf: lambda lower_bound estimate digest")
	fmt.Fprintln(&buf, "# kind m n selection compaction | cmax_estimate tmin k shuffles_tried batches digest")
	for _, kind := range workload.Kinds() {
		for _, m := range []int{16, 200} {
			for _, n := range []int{1, 25, 100, 400} {
				inst, err := workload.Generate(workload.Config{Kind: kind, M: m, N: n, Seed: int64(m + n)})
				if err != nil {
					t.Fatal(err)
				}
				da, err := dualapprox.TwoShelf(inst)
				if err != nil {
					t.Fatalf("%s m=%d n=%d: %v", kind, m, n, err)
				}
				fmt.Fprintf(&buf, "%s %d %d | %s | %s %s %s %s\n", kind, m, n,
					bits(lowerbound.Makespan(inst)),
					bits(da.Lambda), bits(da.LowerBound), bits(da.Estimate), twoShelfDigest(da))
				for _, sel := range []SelectionMode{SelectionKnapsack, SelectionGreedy} {
					for _, comp := range []CompactionMode{CompactionListShuffle, CompactionList, CompactionEarliestStart, CompactionNone} {
						res, err := ScheduleContext(t.Context(), inst, &Options{Selection: sel, Compaction: comp})
						if err != nil {
							t.Fatalf("%s m=%d n=%d %s %s: %v", kind, m, n, sel, comp, err)
						}
						fmt.Fprintf(&buf, "%s %d %d %s %s | %s %s %d %d %d %s\n", kind, m, n, sel, comp,
							bits(res.CmaxEstimate), bits(res.TMin), res.K, res.ShufflesTried, len(res.Batches), resultDigest(res))
					}
				}
			}
		}
	}

	fmt.Fprintln(&buf, "# invalid instance | lower_bound | two_shelf error | schedule error")
	for _, c := range invalidInstances() {
		_, daErr := dualapprox.TwoShelf(c.inst)
		_, err := ScheduleContext(t.Context(), c.inst, nil)
		if daErr == nil || err == nil {
			t.Fatalf("%s: TwoShelf error %v, ScheduleContext error %v; both must fail", c.name, daErr, err)
		}
		fmt.Fprintf(&buf, "%s | %s | %s | %s\n", c.name, bits(lowerbound.Makespan(c.inst)), daErr, err)
	}

	path := filepath.Join("testdata", "demt.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("DEMT output differs from %s:\n got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

type namedInstance struct {
	name string
	inst *moldable.Instance
}

// invalidInstances lists instances Instance.Validate refuses, one per
// check, plus instances failing several checks, where the order of the
// checks decides the message.
func invalidInstances() []namedInstance {
	ok := func(id int) moldable.Task { return moldable.Task{ID: id, Weight: 1, Times: []float64{4, 2.5, 2}} }
	with := func(m int, tasks ...moldable.Task) *moldable.Instance { return &moldable.Instance{M: m, Tasks: tasks} }
	nan, inf := math.NaN(), math.Inf(1)
	return []namedInstance{
		{"no-processor", with(0, ok(0))},
		{"negative-processors", with(-3, ok(0), ok(1))},
		{"no-tasks", with(4)},
		{"no-processor-no-tasks", with(0)},
		{"empty-times", with(4, ok(0), moldable.Task{ID: 1, Weight: 1})},
		{"nan-weight", with(4, ok(0), moldable.Task{ID: 1, Weight: nan, Times: []float64{1}})},
		{"inf-weight", with(4, moldable.Task{ID: 1, Weight: inf, Times: []float64{1}})},
		{"negative-weight", with(4, ok(0), moldable.Task{ID: 1, Weight: -1, Times: []float64{1}})},
		{"nan-time", with(4, ok(0), moldable.Task{ID: 1, Weight: 1, Times: []float64{3, nan, 1}})},
		{"inf-time", with(4, moldable.Task{ID: 1, Weight: 1, Times: []float64{inf, 2}}, ok(2))},
		{"negative-inf-time", with(4, moldable.Task{ID: 1, Weight: 1, Times: []float64{2, math.Inf(-1)}})},
		{"zero-time", with(4, ok(0), moldable.Task{ID: 1, Weight: 1, Times: []float64{2, 0}})},
		{"negative-time", with(4, moldable.Task{ID: 1, Weight: 1, Times: []float64{-2}}, ok(2))},
		{"duplicate-id", with(4, ok(3), ok(1), ok(3))},
		{"duplicate-id-increasing-then-not", with(4, ok(0), ok(1), ok(2), ok(1))},
		{"too-many-times", with(2, ok(0))},
		{"duplicate-before-bad-time", with(4, ok(5), ok(5), moldable.Task{ID: 6, Weight: 1, Times: []float64{nan}})},
		{"bad-time-before-duplicate", with(4, ok(5), moldable.Task{ID: 6, Weight: 1, Times: []float64{nan}}, ok(5))},
		{"bad-weight-and-time", with(4, moldable.Task{ID: 7, Weight: -1, Times: []float64{0}})},
		{"empty-and-too-long", with(1, moldable.Task{ID: 8, Weight: 1}, ok(9))},
		{"duplicate-and-too-long", with(2, moldable.Task{ID: 1, Weight: 1, Times: []float64{1}}, ok(1))},
		{"too-long-before-duplicate", with(2, ok(1), ok(1))},
		{"no-processor-bad-task", with(0, moldable.Task{ID: 1, Weight: nan})},
	}
}

// bits spells a float exactly.
func bits(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// digest hashes values written in a fixed binary layout: float bits,
// integers and lengths, so any change of any field changes the digest.
type digest struct{ h []byte }

func (d *digest) int(v int) { d.h = binary.LittleEndian.AppendUint64(d.h, uint64(int64(v))) }

func (d *digest) float(f float64) { d.h = binary.LittleEndian.AppendUint64(d.h, math.Float64bits(f)) }

func (d *digest) ints(v []int) {
	d.int(len(v))
	for _, x := range v {
		d.int(x)
	}
}

func (d *digest) schedule(s *schedule.Schedule) {
	if s == nil {
		d.int(-1)
		return
	}
	d.int(s.M)
	d.int(len(s.Assignments))
	for _, a := range s.Assignments {
		d.int(a.TaskID)
		d.float(a.Start)
		d.int(a.NProcs)
		d.ints(a.Procs)
		d.float(a.Duration)
	}
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.h)
	return hex.EncodeToString(h[:8])
}

func twoShelfDigest(da *dualapprox.Result) string {
	var d digest
	d.schedule(da.Schedule)
	d.ints(da.Shelf1)
	d.ints(da.Shelf2)
	d.ints(da.Small)
	d.ints(da.Allotment)
	return d.sum()
}

func resultDigest(res *Result) string {
	var d digest
	d.schedule(res.Schedule)
	d.schedule(res.Raw)
	d.int(len(res.Batches))
	for _, b := range res.Batches {
		d.int(b.Index)
		d.float(b.Start)
		d.float(b.End)
		d.float(b.Length)
		d.ints(b.TaskIDs)
		d.int(len(b.MergedGroups))
		for _, g := range b.MergedGroups {
			d.ints(g)
		}
		d.int(b.UsedProcessors)
		d.float(b.SelectedWeight)
	}
	return d.sum()
}
