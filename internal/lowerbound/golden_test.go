package lowerbound

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"bicriteria/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestMinsumLPGolden pins the bits of the LP relaxation on every family at
// m = 16 and m = 200: the value (shortest exact float spelling), the pivot
// count, the solver status and the number of interval boundaries. Any
// change to the formulation or to the pivoting rules shows up here.
func TestMinsumLPGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# kind m n seed lp_value iterations status boundaries")
	for _, kind := range workload.Kinds() {
		for _, m := range []int{16, 200} {
			for _, n := range []int{5, 25, 100, 200} {
				for _, seed := range []int64{1, 2} {
					inst, err := workload.Generate(workload.Config{Kind: kind, M: m, N: n, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					b, err := MinsumLP(inst, nil)
					if err != nil {
						t.Fatalf("%s m=%d n=%d seed=%d: %v", kind, m, n, seed, err)
					}
					fmt.Fprintf(&buf, "%s %d %d %d %s %d %s %d\n", kind, m, n, seed,
						strconv.FormatFloat(b.LPValue, 'g', -1, 64), b.Iterations, b.Status, len(b.Boundaries))
				}
			}
		}
	}
	path := filepath.Join("testdata", "minsum_lp.golden")
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
		t.Fatalf("MinsumLP output differs from %s:\n got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}
