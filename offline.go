package calibsched

import (
	"calibsched/internal/offline"
)

// OfflineResult is an exact offline solve: the optimal flow and a schedule
// achieving it.
type OfflineResult = offline.DPResult

// Unschedulable marks BudgetSweep entries whose budget cannot fit all jobs.
const Unschedulable = offline.Unschedulable

// OptimalFlow computes the exact minimum total weighted flow on one
// machine using at most k calibrations, via the paper's Section 4 dynamic
// program (Theorem 4.7, O(K n^3)). The instance must have distinct release
// times (use Instance.Canonicalize) and at most 512 jobs (offline.MaxDPJobs,
// the DP's memory limit: about 546 MiB of tables at 512 jobs); every exact
// solver here rejects larger instances with an error.
func OptimalFlow(in *Instance, k int) (*OfflineResult, error) {
	return offline.OptimalFlow(in, k)
}

// BudgetSweep returns the optimal flow for every budget 0..maxK in one DP
// run — the flow-versus-calibrations Pareto frontier.
func BudgetSweep(in *Instance, maxK int) ([]int64, error) {
	return offline.BudgetSweep(in, maxK)
}

// OptimalTotalCost computes the exact offline optimum of the online
// objective G*(#calibrations) + flow, the benchmark every online algorithm
// is measured against.
func OptimalTotalCost(in *Instance, g int64) (total int64, bestK int, sched *Schedule, err error) {
	return offline.OptimalTotalCost(in, g)
}

// TotalCostSearch is OptimalTotalCost via ternary search over the budget —
// the paper's "binary search between 1 and n calibrations" remark — exact
// because the flow-versus-budget frontier is convex (property-tested). The
// DP fills its tables for every budget bottom-up, so the search saves no
// DP work; it reads the objective at only O(log n) budgets.
func TotalCostSearch(in *Instance, g int64) (total int64, bestK, probes int, sched *Schedule, err error) {
	return offline.TotalCostSearch(in, g)
}

// BruteForce computes the budget-k optimum by exhaustive search over the
// Lemma 4.2 candidate calibration times; exponential, for cross-validation
// on small instances.
func BruteForce(in *Instance, k int) (*OfflineResult, error) {
	return offline.BruteForce(in, k)
}
