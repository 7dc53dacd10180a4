package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPkgSuffixes names the packages whose outputs must be a
// pure function of their inputs: the core model, the online engines, the
// offline DP, and the simulation loop. Every differential proof in the
// repository — served-vs-batch schedules, crash-recovery replay, DP
// results at every worker count — relies on reruns being byte-identical,
// which a single wall-clock read silently breaks.
//
// internal/trace is deliberately NOT in this set: request spans exist to
// measure wall-clock latency (time.Now, time.Since are their whole
// point), and nothing deterministic consumes them — spans flow outward
// to /v1/traces and the metrics plane only. The serving layers
// (internal/server, internal/cluster, internal/store) are likewise
// outside the set for the same reason: they time real I/O.
var deterministicPkgSuffixes = []string{
	"internal/core",
	"internal/online",
	"internal/offline",
	"internal/simul",
}

func isDeterministicPkg(path string) bool {
	for _, s := range deterministicPkgSuffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// wallClockFuncs are the package-level time functions that read or wait
// on the wall clock. Pure time.Duration arithmetic and type references
// stay legal — only observing real time is forbidden.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallTime forbids reading the wall clock inside the deterministic
// packages. Scheduling time there is the virtual step counter, never
// time.Now; wall-clock reads belong to the serving and benchmarking
// layers, which consume the deterministic results. (Wall-clock-derived
// rand seeds are seededrand's half of the same invariant.)
var WallTime = &Analyzer{
	Name:      "walltime",
	Doc:       "forbid time.Now/Since/Sleep and timer construction in the deterministic packages; scheduling time is the virtual step counter",
	Applies:   isDeterministicPkg,
	SkipTests: true,
	Run:       runWallTime,
}

func runWallTime(pass *Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock in a deterministic package; use the virtual step counter (byte-identical replay depends on it)", fn.Name())
		}
		return true
	})
	return nil
}
