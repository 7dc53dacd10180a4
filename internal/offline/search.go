package offline

import (
	"fmt"

	"calibsched/internal/core"
	"calibsched/internal/simul"
)

// TotalCostSearch minimizes the online objective G*k + flow(k) over the
// budget k by ternary search instead of a full sweep, implementing the
// paper's Section 4 remark that "we can use a binary search to find the
// optimal calibration budget (between 1 and n calibrations)".
//
// The search is exact because flow(k) is convex in k (adding a calibration
// has diminishing returns) and hence G*k + flow(k) is convex; the
// reproduction does not take this on faith — TestTernaryMatchesSweep and
// TestFlowConvexity cross-check against the exhaustive sweep on thousands
// of randomized instances. The DP fills its tables bottom-up for every
// budget, so the search saves no DP work: it reads the objective at
// O(log n) budgets instead of all n, which is the shape of the remark.
//
// It returns the optimal total cost, the minimizing budget, the number of
// distinct budgets probed, and a schedule achieving the optimum.
func TotalCostSearch(in *core.Instance, g int64) (total int64, bestK, probes int, sched *core.Schedule, err error) {
	if g < 0 {
		return 0, 0, 0, nil, fmt.Errorf("offline: negative G %d", g)
	}
	if in.N() == 0 {
		return 0, 0, 0, core.NewSchedule(0), nil
	}
	s, err := solveTables(in, in.N(), 1)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	probed := map[int]bool{}
	totalAt := func(k int) int64 {
		probed[k] = true
		f := s.flowAt(k)
		if f == Unschedulable {
			return inf
		}
		return core.MustAdd(core.MustMul(g, int64(k)), f)
	}

	lo := int(simul.CeilDiv(int64(in.N()), in.T)) // below this: infeasible
	hi := in.N()                                  // more calibrations than jobs never help
	for hi-lo >= 3 {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if totalAt(m1) <= totalAt(m2) {
			hi = m2 - 1
		} else {
			lo = m1 + 1
		}
	}
	best := inf
	bestK = -1
	for k := lo; k <= hi; k++ {
		if c := totalAt(k); c < best {
			best = c
			bestK = k
		}
	}
	if bestK < 0 || best >= inf {
		return 0, 0, len(probed), nil, fmt.Errorf("offline: no feasible schedule in budget range [%d,%d]", lo, hi)
	}
	return best, bestK, len(probed), s.rebuild(bestK), nil
}
