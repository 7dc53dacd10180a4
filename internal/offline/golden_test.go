package offline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"calibsched/internal/core"
)

// goldenCase is one line of testdata/dp_golden.jsonl: a canonical
// single-machine instance with its cost G, and the answers the exact
// solver gave for it. The fixture was written by the top-down memoized
// Section 4 solver that preceded the bottom-up one, so it pins the kept
// solver to an implementation it shares no table code with.
//
// Cases: 272 random instances (n 1-48, T 1-8, G 0-300, releases spread
// over 1-4n slots, weights 1..W with W one of 1, 2, 3 or 50; the small
// weight ranges make equal-cost alternatives common, so the fixture pins
// how ties resolve) and every workload family at n = 12 and 24 (T = 4,
// seed 7) with G = 8 and 32.
type goldenCase struct {
	Name     string  `json:"name"`
	T        int64   `json:"T"`
	G        int64   `json:"G"`
	Releases []int64 `json:"releases"`
	Weights  []int64 `json:"weights"`
	// OptimalTotalCost: total, minimizing budget, and the schedule as
	// calendar starts and per-job start slots (machine 0 throughout).
	Total    int64   `json:"total"`
	K        int     `json:"k"`
	Calendar []int64 `json:"calendar"`
	Starts   []int64 `json:"starts"`
	// BudgetSweep flows for k = 0..n.
	Sweep []int64 `json:"sweep"`
}

// solveGoldenCase recomputes c's answers from its instance with the
// given worker count.
func solveGoldenCase(t *testing.T, c goldenCase, workers int) goldenCase {
	t.Helper()
	in := core.MustInstance(1, c.T, c.Releases, c.Weights).Canonicalize()
	out := goldenCase{Name: c.Name, T: c.T, G: c.G, Releases: c.Releases, Weights: c.Weights}
	total, k, sched, err := OptimalTotalCostParallel(in, c.G, workers)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	out.Total, out.K = total, k
	for _, cal := range sched.Calendar {
		if cal.Machine != 0 {
			t.Fatalf("%s: calibration on machine %d", c.Name, cal.Machine)
		}
		out.Calendar = append(out.Calendar, cal.Start)
	}
	for i, a := range sched.Assignments {
		if a.Machine != 0 || a.Job != i {
			t.Fatalf("%s: assignment %d is %+v", c.Name, i, a)
		}
		out.Starts = append(out.Starts, a.Start)
	}
	if out.Sweep, err = BudgetSweepParallel(in, in.N(), workers); err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return out
}

// TestDPGolden recomputes every fixture case at 1, 2 and 7 workers and
// requires each re-encoded line to equal the committed one byte for
// byte: totals, budgets, schedules and budget sweeps.
func TestDPGolden(t *testing.T) {
	f, err := os.Open("testdata/dp_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	cases := 0
	for sc.Scan() {
		line := sc.Bytes()
		var c goldenCase
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("line %d: %v", cases+1, err)
		}
		for _, workers := range []int{1, 2, 7} {
			got, err := json.Marshal(solveGoldenCase(t, c, workers))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, line) {
				t.Fatalf("%s (workers=%d):\n got %s\nwant %s", c.Name, workers, got, line)
			}
		}
		cases++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cases != 300 {
		t.Fatalf("fixture holds %d cases, want 300", cases)
	}
}
