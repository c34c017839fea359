package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bicriteria"
)

// writeInstanceFile saves a generated off-line instance into a temp file
// and returns the path.
func writeInstanceFile(t *testing.T, cfg bicriteria.WorkloadConfig) string {
	t.Helper()
	inst, err := bicriteria.GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := bicriteria.SaveInstance(path, inst); err != nil {
		t.Fatal(err)
	}
	return path
}

func schedWorkload(t *testing.T) string {
	return writeInstanceFile(t, bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadHighlyParallel, M: 12, N: 15, Seed: 9,
	})
}

func TestSchedAllAlgorithms(t *testing.T) {
	path := schedWorkload(t)
	for _, algo := range []string{"demt", "gang", "sequential", "list", "lptf", "saf"} {
		var buf bytes.Buffer
		if err := schedCmd([]string{"-i", path, "-algo", algo}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out := buf.String()
		if !strings.Contains(out, "makespan") || !strings.Contains(out, "ratio") {
			t.Fatalf("%s: missing metrics in output:\n%s", algo, out)
		}
	}
}

func TestSchedWithGanttAndAssignments(t *testing.T) {
	path := schedWorkload(t)
	var buf bytes.Buffer
	if err := schedCmd([]string{"-i", path, "-algo", "demt", "-gantt", "-assignments", "-lp"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Gantt chart") || !strings.Contains(out, "task") {
		t.Fatalf("missing Gantt or assignment output:\n%s", out)
	}
}

func TestSchedErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := schedCmd([]string{}, &buf); err == nil {
		t.Fatalf("missing input file must fail")
	}
	if err := schedCmd([]string{"-i", "does-not-exist.json"}, &buf); err == nil {
		t.Fatalf("missing file must fail")
	}
	path := schedWorkload(t)
	if err := schedCmd([]string{"-i", path, "-algo", "bogus"}, &buf); err == nil {
		t.Fatalf("unknown algorithm must fail")
	}
}

func TestBoundsPrintsBounds(t *testing.T) {
	path := writeInstanceFile(t, bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadMixed, M: 10, N: 12, Seed: 4,
	})
	var buf bytes.Buffer
	if err := boundsCmd([]string{"-i", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"makespan lower bound", "squashed-area", "LP relaxation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestBoundsReportsTheLPItself pins that the LP line prints the
// relaxation's own value, not its maximum with the squashed-area bound:
// on an instance where the LP is the weaker bound the line shows the
// smaller number and the gain falls below 1x.
func TestBoundsReportsTheLPItself(t *testing.T) {
	cfg := bicriteria.WorkloadConfig{Kind: bicriteria.WorkloadCirne, M: 200, N: 200, Seed: 7}
	inst, err := bicriteria.GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bicriteria.MinsumLowerBoundLP(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast := bicriteria.MinsumLowerBoundFast(inst)
	if b.LPValue >= fast {
		t.Fatalf("LP %.4f does not lose to the squashed area %.4f on this instance", b.LPValue, fast)
	}
	var buf bytes.Buffer
	if err := boundsCmd([]string{"-i", writeInstanceFile(t, cfg)}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if want := "minsum LP relaxation LB : " + strconv.FormatFloat(b.LPValue, 'f', 4, 64) + " "; !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
	if want := "LP / squashed-area gain : " + strconv.FormatFloat(b.LPValue/fast, 'f', 3, 64) + "x"; !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
}

func TestBoundsErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := boundsCmd([]string{}, &buf); err == nil {
		t.Fatalf("missing -i must fail")
	}
	if err := boundsCmd([]string{"-i", "missing.json"}, &buf); err == nil {
		t.Fatalf("missing file must fail")
	}
}

func TestExpQuickFigure(t *testing.T) {
	var buf bytes.Buffer
	csvPath := filepath.Join(t.TempDir(), "fig.csv")
	err := expCmd([]string{
		"-figure", "4", "-m", "12", "-runs", "2", "-tasks", "6,10",
		"-algorithms", "demt,saf", "-csv", csvPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "highly-parallel") || !strings.Contains(out, "Makespan ratio") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "demt") {
		t.Fatalf("CSV missing demt rows")
	}
}

func TestExpCustomWorkload(t *testing.T) {
	var buf bytes.Buffer
	err := expCmd([]string{"-workload", "mixed", "-m", "10", "-runs", "1", "-tasks", "5", "-algorithms", "demt"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mixed") {
		t.Fatalf("missing workload name in output")
	}
}

func TestExpErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "12"},
		{"-workload", "bogus"},
		{"-tasks", "abc"},
		{"-tasks", "0"},
		{"-algorithms", "bogus"},
		// The library would replace these zeros with its defaults after
		// the header echoed them.
		{"-figure", "4", "-runs", "0", "-tasks", "5"},
		{"-figure", "4", "-m", "0", "-tasks", "5"},
		{"-ablation", "bound", "-runs", "-1"},
	} {
		var buf bytes.Buffer
		if err := expCmd(args, &buf); err == nil {
			t.Fatalf("args %v accepted:\n%s", args, buf.String())
		}
		if buf.Len() != 0 {
			t.Fatalf("args %v printed before failing:\n%s", args, buf.String())
		}
	}
}

func TestExpAblations(t *testing.T) {
	for _, kind := range []string{"selection", "compaction", "bound"} {
		var buf bytes.Buffer
		err := expCmd([]string{"-ablation", kind, "-workload", "cirne", "-m", "10", "-ablation-n", "8", "-runs", "2"}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !strings.Contains(buf.String(), "Ablation") {
			t.Fatalf("%s: missing table:\n%s", kind, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := expCmd([]string{"-ablation", "bogus"}, &buf); err == nil {
		t.Fatalf("unknown ablation must fail")
	}
	if err := expCmd([]string{"-ablation", "bound", "-workload", "bogus"}, &buf); err == nil {
		t.Fatalf("unknown workload with ablation must fail")
	}
}
