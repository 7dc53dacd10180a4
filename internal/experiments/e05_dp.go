package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"calibsched/internal/core"
	"calibsched/internal/offline"
	"calibsched/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "e5",
		Title: "Theorem 4.7: exact DP, correctness and scaling",
		Claim: "The DP equals the brute-force optimum on every sampled instance, and its runtime grows polynomially (cubic-ish in n at fixed K, near-linear extra cost in K).",
		Run:   runE5,
	})
}

func runE5(w io.Writer, cfg Config) (*Report, error) {
	rep := newReport("e5", "Theorem 4.7: exact DP, correctness and scaling")

	// Part 1: correctness census against brute force.
	trials := 200
	if cfg.Quick {
		trials = 40
	}
	matches := parallelMap(cfg, trials, func(i int) bool {
		rng := rand.New(rand.NewPCG(uint64(i)+cfg.Seed, 77))
		n := 1 + rng.IntN(7)
		releases := make([]int64, n)
		weights := make([]int64, n)
		for j := range releases {
			releases[j] = int64(rng.IntN(16))
			weights[j] = 1 + int64(rng.IntN(5))
		}
		in := core.MustInstance(1, int64(1+rng.IntN(5)), releases, weights).Canonicalize()
		flows, err := offline.BudgetSweep(in, in.N())
		if err != nil {
			panic(fmt.Sprintf("e5: %v", err))
		}
		for k := 0; k <= in.N(); k++ {
			brute, berr := offline.BruteForce(in, k)
			if flows[k] == offline.Unschedulable {
				if berr == nil {
					return false
				}
				continue
			}
			if berr != nil || brute.Flow != flows[k] {
				return false
			}
		}
		return true
	})
	matched := 0
	for _, ok := range matches {
		if ok {
			matched++
		}
	}
	fmt.Fprintf(w, "correctness: DP == brute force on %d/%d random instances (all budgets)\n\n", matched, trials)
	if matched != trials {
		rep.violate("DP mismatched brute force on %d/%d instances", trials-matched, trials)
	}

	// Part 2: runtime scaling in n at fixed K.
	ns := []int{16, 24, 32, 48, 64, 96, 128, 192}
	reps := 3
	if cfg.Quick {
		ns = []int{12, 16, 24, 32}
		reps = 1
	}
	timeDP := func(n, k int, seed uint64) float64 {
		rng := rand.New(rand.NewPCG(seed, 5))
		releases := make([]int64, n)
		for j := range releases {
			releases[j] = int64(rng.IntN(n * 6))
		}
		weights := make([]int64, n)
		for j := range weights {
			weights[j] = 1 + int64(rng.IntN(8))
		}
		in := core.MustInstance(1, 8, releases, weights).Canonicalize()
		best := 0.0
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, err := offline.OptimalFlow(in, k); err != nil {
				panic(fmt.Sprintf("e5 timing: %v", err))
			}
			el := time.Since(start).Seconds()
			if best == 0 || el < best {
				best = el
			}
		}
		return best
	}
	nTimes := parallelMap(cfg, len(ns), func(i int) float64 {
		return timeDP(ns[i], ns[i]/2, cfg.Seed+9)
	})
	tbl := stats.NewTable("n", "K", "seconds")
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
		tbl.AddRow(n, n/2, nTimes[i])
	}
	if err := tbl.Write(w); err != nil {
		return nil, err
	}
	slopeN := stats.LogLogSlope(xs, nTimes)
	fmt.Fprintf(w, "\nlog-log slope vs n (K=n/2): %.2f (paper: O(K n^3))\n\n", slopeN)

	// Part 3: runtime scaling in K at fixed n (budgets satisfy k*T >= n
	// so every point is feasible).
	ks := []int{8, 16, 32, 48}
	nFix := 48
	if cfg.Quick {
		ks = []int{4, 8, 16}
		nFix = 32
	}
	kTimes := parallelMap(cfg, len(ks), func(i int) float64 {
		return timeDP(nFix, ks[i], cfg.Seed+9)
	})
	tbl2 := stats.NewTable("n", "K", "seconds")
	kx := make([]float64, len(ks))
	for i, k := range ks {
		kx[i] = float64(k)
		tbl2.AddRow(nFix, k, kTimes[i])
	}
	if err := tbl2.Write(w); err != nil {
		return nil, err
	}
	slopeK := stats.LogLogSlope(kx, kTimes)
	fmt.Fprintf(w, "\nlog-log slope vs K (n=%d): %.2f (paper: linear in K)\n", nFix, slopeK)

	// Shape judgement: polynomial, not exponential. The measured n
	// exponent should sit near the cubic regime of Theorem 4.7 (the
	// bottom-up solver fills about n^3/6 Proposition 2 states), and the K
	// exponent near zero: the Proposition 2 table, which dominates the
	// run, does not depend on the budget (see EXPERIMENTS.md). Quick
	// mode's grids are too small for stable slope fits (single reps,
	// sub-millisecond points), so the gates apply to the full grids only.
	// Both fits are wall-clock measurements that vary from run to run:
	// they are printed above and gated here, but kept out of the verdict
	// line so that it is reproducible.
	if !cfg.Quick {
		if slopeN > 5.0 {
			rep.violate("n-exponent %.2f looks super-polynomial for the claimed O(Kn^3)", slopeN)
		}
		if slopeK > 2.0 {
			rep.violate("K-exponent %.2f far above the claimed linear dependence", slopeK)
		}
	}
	rep.set("correctness", "%d/%d", matched, trials)
	WriteReport(w, rep)
	return rep, nil
}
