package bicriteria_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// goldenExamples are the examples whose output is a pure function of their
// code. examples/scenario is left out because its shard callbacks print in
// goroutine order and it prints a temporary path; examples/serve runs on
// the wall clock.
var goldenExamples = []string{
	"cluster", "faults", "grid", "online", "portfolio", "quickstart", "reservations", "workloads",
}

// TestExamplesMatchGolden runs every deterministic example and diffs its
// standard output against testdata/examples/<name>.golden, so a change to
// the facade path an example takes cannot move one byte of what it
// prints unnoticed. -update-api regenerates the goldens with the rest of
// the root package's:
//
//	go test -run TestExamplesMatchGolden -update-api .
func TestExamplesMatchGolden(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, name := range goldenExamples {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(goBin, "run", "./examples/"+name)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", "examples", name+".golden")
			if *updateAPI {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing example golden (regenerate with: go test -run TestExamplesMatchGolden -update-api .): %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("examples/%s drifted from %s\n"+
					"if the change is intentional, regenerate with: go test -run TestExamplesMatchGolden -update-api .\n"+
					"--- got ---\n%s\n--- want ---\n%s", name, path, out, want)
			}
		})
	}
}
