package offline

import (
	"math/rand/v2"
	"strings"
	"testing"

	"calibsched/internal/core"
)

// TestNewSolverRejectsOversizedInstance exercises the memory guard:
// beyond MaxDPJobs the dense tables would outgrow the documented bound,
// so newSolver must refuse the instance before allocating them. The
// instance is a raw literal, so nothing is sorted or canonicalized.
func TestNewSolverRejectsOversizedInstance(t *testing.T) {
	n := MaxDPJobs + 1
	jobs := make([]core.Job, n)
	for i := range jobs {
		jobs[i] = core.Job{ID: i, Release: int64(i), Weight: 1}
	}
	in := &core.Instance{Jobs: jobs, P: 1, T: 4}
	if _, err := newSolver(in, 1); err == nil {
		t.Fatalf("newSolver accepted %d jobs; the limit is %d", n, MaxDPJobs)
	} else if !strings.Contains(err.Error(), "exceed the DP limit") {
		t.Fatalf("unexpected error text: %v", err)
	}
	// The guard must surface through every exported entry point.
	if _, err := OptimalFlow(in, 1); err == nil {
		t.Error("OptimalFlow accepted an oversized instance")
	}
	if _, err := BudgetSweep(in, 1); err == nil {
		t.Error("BudgetSweep accepted an oversized instance")
	}
	if _, err := BudgetSweepParallel(in, 1, 2); err == nil {
		t.Error("BudgetSweepParallel accepted an oversized instance")
	}
	if _, _, _, err := OptimalTotalCost(in, 1); err == nil {
		t.Error("OptimalTotalCost accepted an oversized instance")
	}
	if _, _, _, _, err := TotalCostSearch(in, 1); err == nil {
		t.Error("TotalCostSearch accepted an oversized instance")
	}
}

// prefixSScan is Definition 4.5's s by a direct O(T + n) scan over the
// state's releases, the reference for the binary-search prefixS.
func prefixSScan(s *solver, u, v, mu int) int64 {
	b := s.rel[v] + 1 - s.T
	var rels []int64
	for i := u; i <= v; i++ {
		if s.rank[i] > mu {
			rels = append(rels, s.rel[i])
		}
	}
	ptr := 0
	for h := int64(0); h <= s.T; h++ {
		for ptr < len(rels) && rels[ptr] < b+h {
			ptr++
		}
		if h%s.T == int64(ptr)%s.T {
			return h
		}
	}
	panic("offline: no busy-prefix fixed point; unreachable")
}

// TestIndexedHelpersMatchScans cross-checks the binary-search prefixS
// against the direct scan over every reachable (u, v, mu) state of
// random instances.
func TestIndexedHelpersMatchScans(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 120; trial++ {
		in := tinyInstance(rng, 10, 40, 6, 6)
		n := in.N()
		if n == 0 {
			continue
		}
		s, err := newSolver(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		for u := 1; u <= n; u++ {
			for v := u; v <= n; v++ {
				for mu := 0; mu <= n; mu++ {
					// prefixS is only defined on states solveState
					// reaches: nonempty J(u,v,mu) that passes the
					// psi/jLast feasibility guard (otherwise no
					// busy-prefix fixed point need exist). Replicate that
					// guard here.
					if s.cnt(u, v, mu) == 0 {
						continue
					}
					b := s.rel[v] + 1 - s.T
					feasible := true
					for j := u; j <= v-1; j++ {
						if s.rank[j] > mu && s.cnt(u, j, mu)%s.T == 0 && b <= s.rel[j] {
							feasible = false
							break
						}
					}
					if !feasible {
						continue
					}
					want := prefixSScan(s, u, v, mu)
					if got := s.prefixS(u, v, mu); got != want {
						t.Fatalf("prefixS(%d,%d,%d) = %d, scan = %d", u, v, mu, got, want)
					}
				}
			}
		}
	}
}
