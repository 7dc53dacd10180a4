package online

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"calibsched/internal/core"
	"calibsched/internal/trace"
	"calibsched/internal/workload"
)

// multiGoldenCase is one line of testdata/multi_golden.jsonl: one run of
// Algorithm 3 or Alg2Multi on a workload-family instance, with and without
// the Observation 2.1 replay. Both runs make the same calendar decisions,
// so the decision events are stored once.
//
// Cases: every workload family and burstInstance at n = 24 (seed 7+P),
// P = 1..4, and (T, G) in (1, 3), (3, 10), (4, 40), (6, 61), (5, 2),
// (7, 0), for both algorithms. Algorithm 3 runs the instance with every
// weight set to 1.
//
// The encoding is compact but loses nothing: a schedule's JSON is a
// function of its calendar and per-job (machine, start) pairs once each
// assignment's Job is its index, and an event's Seq, Alg, Rule,
// Calibrations and AccruedCost follow from its position, the algorithm,
// its trigger and G; solveMultiGoldenCase checks both facts on every run.
type multiGoldenCase struct {
	Family string `json:"family"`
	Alg    string `json:"alg"`
	P      int    `json:"P"`
	T      int64  `json:"T"`
	G      int64  `json:"G"`
	N      int    `json:"n"`
	Seed   uint64 `json:"seed"`

	// Events holds one [time, machine, trigger, queue length, queue
	// weight, prospective flow] per calibration, in calendar order.
	Events [][]any `json:"events"`
	// Explicit is the WithoutObservationReplay schedule, with its
	// JobsByCalibration; Replayed is the default run's schedule.
	Explicit          goldenSchedule `json:"explicit"`
	JobsByCalibration [][]int        `json:"jobs_by_calibration"`
	Replayed          goldenSchedule `json:"replayed"`
}

// goldenSchedule is a schedule as [machine, start] pairs: one per
// calibration in calendar order, and one per job in ID order.
type goldenSchedule struct {
	Calendar [][2]int64 `json:"calendar"`
	Starts   [][2]int64 `json:"starts"`
}

// compactSchedule encodes s, failing the test if an assignment's Job is
// not its index.
func compactSchedule(t *testing.T, where string, s *core.Schedule) goldenSchedule {
	t.Helper()
	var out goldenSchedule
	for _, c := range s.Calendar {
		out.Calendar = append(out.Calendar, [2]int64{int64(c.Machine), c.Start})
	}
	for i, a := range s.Assignments {
		if a.Job != i {
			t.Fatalf("%s: assignment %d is %+v", where, i, a)
		}
		out.Starts = append(out.Starts, [2]int64{int64(a.Machine), a.Start})
	}
	return out
}

// burstInstance draws n jobs onto six release times, 1 to T steps apart.
// Workload families canonicalize their instances, which leaves at most P
// jobs per release time; the algorithms take any instance, and only such
// bursts fill every machine's window in one step or leave jobs waiting
// beside a machine that is idle and covered.
func burstInstance(n, p int, t int64, seed uint64) (*core.Instance, error) {
	rng := rand.New(rand.NewPCG(seed, 26))
	releases := make([]int64, n)
	weights := make([]int64, n)
	gap := 1 + rng.Int64N(t)
	for i := range releases {
		releases[i] = rng.Int64N(6) * gap
		weights[i] = 1 + int64(rng.IntN(6))
		if rng.IntN(8) == 0 {
			weights[i] = 50
		}
	}
	return core.NewInstance(p, t, releases, weights)
}

// unitWeights returns in with every weight set to 1, the instance
// Algorithm 3 runs for a weighted family.
func unitWeights(in *core.Instance) *core.Instance {
	if in.Unweighted() {
		return in
	}
	releases := make([]int64, in.N())
	ones := make([]int64, in.N())
	for i, j := range in.Jobs {
		releases[i], ones[i] = j.Release, 1
	}
	return core.MustInstance(in.P, in.T, releases, ones)
}

// multiGoldenBuilders maps each fixture family name to its instance
// builder: the workload families, then "burst".
func multiGoldenBuilders() map[string]func(n, p int, t int64, seed uint64) (*core.Instance, error) {
	builders := map[string]func(n, p int, t int64, seed uint64) (*core.Instance, error){"burst": burstInstance}
	for _, fam := range workload.Families() {
		builders[fam.Name] = fam.Build
	}
	return builders
}

// multiGoldenGrid lists every fixture case's inputs in file order.
func multiGoldenGrid() []multiGoldenCase {
	var cases []multiGoldenCase
	for _, name := range append(workload.FamilyNames(), "burst") {
		for p := 1; p <= 4; p++ {
			for _, tg := range [][2]int64{{1, 3}, {3, 10}, {4, 40}, {6, 61}, {5, 2}, {7, 0}} {
				for _, alg := range []string{"alg3", "alg2multi"} {
					cases = append(cases, multiGoldenCase{
						Family: name, Alg: alg, P: p, T: tg[0], G: tg[1], N: 24, Seed: uint64(7 + p),
					})
				}
			}
		}
	}
	return cases
}

// solveMultiGoldenCase runs c's algorithm on c's instance, both with and
// without replay, and fills in the answers.
func solveMultiGoldenCase(t *testing.T, c multiGoldenCase) multiGoldenCase {
	t.Helper()
	build, ok := multiGoldenBuilders()[c.Family]
	if !ok {
		t.Fatalf("unknown family %q", c.Family)
	}
	in, err := build(c.N, c.P, c.T, c.Seed)
	if err != nil {
		t.Fatal(err)
	}
	alg := Alg2Multi
	if c.Alg == "alg3" {
		alg, in = Alg3, unitWeights(in)
	}
	where := fmt.Sprintf("%s %s P=%d T=%d G=%d", c.Family, c.Alg, c.P, c.T, c.G)
	explicitRec, replayRec := &trace.Recorder{}, &trace.Recorder{}
	explicit, err := alg(in, c.G, WithoutObservationReplay(), WithSink(explicitRec))
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	replayed, err := alg(in, c.G, WithSink(replayRec))
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if !slices.Equal(explicit.Triggers, replayed.Triggers) || !slices.Equal(explicitRec.Events(), replayRec.Events()) {
		t.Fatalf("%s: replay changed the calendar decisions", where)
	}
	events := explicitRec.Events()
	if len(events) != len(explicit.Triggers) {
		t.Fatalf("%s: %d events for %d triggers", where, len(events), len(explicit.Triggers))
	}
	out := c
	out.Events = nil
	for i, ev := range events {
		tr, n := explicit.Triggers[i], int64(i+1)
		if ev.Seq != n || ev.Alg != c.Alg || ev.Rule != ruleName(c.Alg, tr) || ev.Calibrations != i+1 || ev.AccruedCost != c.G*n {
			t.Fatalf("%s: event %d is %+v for trigger %s", where, i, ev, tr)
		}
		out.Events = append(out.Events, []any{ev.Time, ev.Machine, tr.String(), ev.QueueLen, ev.QueueWeight, ev.ProspectiveFlow})
	}
	out.Explicit = compactSchedule(t, where, explicit.Schedule)
	out.JobsByCalibration = explicit.JobsByCalibration
	out.Replayed = compactSchedule(t, where, replayed.Schedule)
	return out
}

// TestMultiGolden reruns every fixture case and requires each re-encoded
// line to equal the committed one byte for byte: schedules with and
// without replay, triggers, decision events and JobsByCalibration.
func TestMultiGolden(t *testing.T) {
	f, err := os.Open("testdata/multi_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	grid := multiGoldenGrid()
	cases := 0
	for ; sc.Scan(); cases++ {
		line := sc.Bytes()
		var c multiGoldenCase
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("line %d: %v", cases+1, err)
		}
		if cases >= len(grid) || c.Family != grid[cases].Family || c.Alg != grid[cases].Alg || c.P != grid[cases].P || c.T != grid[cases].T || c.G != grid[cases].G {
			t.Fatalf("line %d (%s %s P=%d T=%d G=%d) is not the grid's case %d", cases+1, c.Family, c.Alg, c.P, c.T, c.G, cases+1)
		}
		got, err := json.Marshal(solveMultiGoldenCase(t, c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("line %d:\n got %s\nwant %s", cases+1, got, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cases != len(grid) {
		t.Fatalf("fixture holds %d cases, want %d", cases, len(grid))
	}
}
