package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment tables")

// suite caches the tiny-scale renders of every table shared by
// TestGoldenTables and TestParallelSweepsMatchSequential, so the full suite
// is rendered twice per test binary rather than once per test.
var suite struct {
	once   sync.Once
	procs  []int
	tables [][]Table
}

// renderSuite renders All(tiny) at GOMAXPROCS 1, which forces core.Sweep's
// sequential fallback, and at GOMAXPROCS 4, which forces the worker pool
// even on a single-core machine (workers pull points in whatever order the
// scheduler allows; only the result slots are ordered). Under -short it
// renders once, at the current GOMAXPROCS.
func renderSuite() ([]int, [][]Table) {
	suite.once.Do(func() {
		suite.procs = []int{1, 4}
		if testing.Short() {
			suite.procs = []int{runtime.GOMAXPROCS(0)}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		suite.tables = make([][]Table, len(suite.procs))
		for i, p := range suite.procs {
			runtime.GOMAXPROCS(p)
			suite.tables[i] = All(tiny)
		}
	})
	return suite.procs, suite.tables
}

// TestGoldenTables locks down the rendered output of every experiment at a
// fixed small scale. The worlds are seeded deterministically, so any drift in
// a golden table means the simulation's behaviour changed — either a real
// regression or an intentional change that should be reviewed and then
// re-recorded with `go test ./internal/experiments -run TestGoldenTables -update`.
//
// Both renders from renderSuite must match the goldens. -update records the
// sequential render and checks the parallel one against it.
func TestGoldenTables(t *testing.T) {
	procs, renders := renderSuite()
	for i, tbl := range renders[0] {
		i := i
		t.Run(tbl.ID, func(t *testing.T) {
			path := filepath.Join("testdata", fmt.Sprintf("%s.golden", tbl.ID))
			if *update {
				if err := os.WriteFile(path, []byte(tbl.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to record): %v", err)
			}
			for j, r := range renders {
				if got := r[i].String(); got != string(want) {
					t.Errorf("table %s at GOMAXPROCS %d drifted from golden.\n--- got ---\n%s--- want ---\n%s",
						tbl.ID, procs[j], got, want)
				}
			}
		})
	}
}

// TestParallelSweepsMatchSequential pins the sweeps' determinism directly:
// every table fans its trials out through core.Sweep, and fanning across
// workers must not change a single byte of any rendered table. It compares
// the GOMAXPROCS 1 and 4 renders from renderSuite with each other, so it
// holds even while the goldens are being re-recorded.
func TestParallelSweepsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the sequential and the parallel render of the suite")
	}
	_, renders := renderSuite()
	seq, par := renders[0], renders[1]
	for i := range seq {
		if s, p := seq[i].String(), par[i].String(); s != p {
			t.Errorf("table %s differs between sequential and parallel sweeps.\n--- sequential ---\n%s--- parallel ---\n%s",
				seq[i].ID, s, p)
		}
	}
}
