package online

import (
	"bytes"
	"testing"

	"calibsched/internal/core"
)

// FuzzRestoreEngine throws arbitrary bytes at the engine-state decoders.
// Restoring must never panic, whatever the version. A version 2 state
// that decodes must re-encode byte for byte, and one that restores must
// marshal back to itself: the encoding is canonical, so recovered and
// never-killed engines snapshot identically.
func FuzzRestoreEngine(f *testing.F) {
	// Every restore holds at most fuzzJobs jobs, IDs 0..63: the seeds
	// use 0..11.
	const fuzzJobs = 64
	for _, alg := range []string{"alg1", "alg2"} {
		st, _ := NewEngine(alg, 3, 6)
		for step := int64(0); step < 12; step++ {
			st.Step([]core.Job{{ID: int(step), Release: step, Weight: 1 + step%3}})
			b, err := st.MarshalState()
			if err != nil {
				f.Fatal(err)
			}
			if step%4 == 3 {
				f.Add(b)
				v1, err := StateV1(b)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(v1)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{stepperStateVersion})
	f.Add([]byte(`{"v":1}`))

	f.Fuzz(func(t *testing.T, state []byte) {
		for _, alg := range []string{"alg1", "alg2"} {
			_, _ = RestoreEngine(alg, 3, 6, fuzzJobs, state)
		}
		st, err := decodeState(state)
		if err != nil || state[0] == '{' {
			return
		}
		again, err := encodeState(st)
		if err != nil {
			t.Fatalf("decoded state does not re-encode: %v", err)
		}
		if !bytes.Equal(again, state) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, state)
		}
		eng, err := RestoreEngine(st.Alg, st.T, st.G, fuzzJobs, state)
		if err != nil {
			return
		}
		marshaled, err := eng.MarshalState()
		if err != nil {
			t.Fatalf("restored engine does not marshal: %v", err)
		}
		if !bytes.Equal(marshaled, state) {
			t.Fatalf("restored engine marshals differently:\n got %x\nwant %x", marshaled, state)
		}
	})
}
