// Package solve runs exact offline solves as a bounded concurrent
// service: a worker pool executes DP requests (OptimalFlow, BudgetSweep,
// OptimalTotalCost), a scan-resistant S3-FIFO cache keyed by a canonical
// instance hash makes repeat solves free, and in-flight deduplication lets concurrent
// identical requests share a single DP run. The pool is the engine
// behind calibserved's POST /v1/solve endpoint but has no HTTP or
// metrics dependencies of its own — observers hook in via Options.
package solve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"calibsched/internal/core"
)

// Kind selects which exact solver a request runs.
type Kind string

const (
	// KindFlow runs OptimalFlow: minimum total weighted flow under a
	// budget of exactly Request.K calibrations.
	KindFlow Kind = "flow"
	// KindSweep runs BudgetSweep: optimal flow for every budget
	// 0..Request.K.
	KindSweep Kind = "sweep"
	// KindTotalCost runs OptimalTotalCost: minimum flow + G·(#calibrations)
	// with G = Request.G.
	KindTotalCost Kind = "total"
)

func (k Kind) valid() bool {
	switch k {
	case KindFlow, KindSweep, KindTotalCost:
		return true
	}
	return false
}

// keyVersion is folded into every hash so a change to the serialization
// can never alias entries written by an older layout.
const keyVersion = "calibsolve/v1"

// InstanceKey returns the canonical cache key for a solve request: a
// hex-encoded SHA-256 over a versioned, length-prefixed serialization of
// the instance (P, T, and every job's release and weight in the
// instance's canonical (Release, ID) order) plus the request kind and
// its parameter (K or G). Two requests get equal keys iff they describe
// the same solve; in particular the kind and parameter are part of the
// key, so the same job set under a different G can never collide.
func InstanceKey(in *core.Instance, kind Kind, param int64) string {
	buf := make([]byte, 0, 64+16*len(in.Jobs))
	buf = append(buf, keyVersion...)
	buf = append(buf, 0)
	buf = append(buf, kind...)
	buf = append(buf, 0)
	buf = binary.AppendVarint(buf, param)
	buf = binary.AppendVarint(buf, int64(in.P))
	buf = binary.AppendVarint(buf, in.T)
	buf = binary.AppendVarint(buf, int64(len(in.Jobs)))
	for _, j := range in.Jobs {
		buf = binary.AppendVarint(buf, j.Release)
		buf = binary.AppendVarint(buf, j.Weight)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// requestKey derives the cache key for a validated request.
func requestKey(req Request) string {
	switch req.Kind {
	case KindTotalCost:
		return InstanceKey(req.Instance, req.Kind, req.G)
	default:
		return InstanceKey(req.Instance, req.Kind, int64(req.K))
	}
}
