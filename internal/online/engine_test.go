package online

import (
	"bytes"
	"strings"
	"testing"

	"calibsched/internal/core"
)

func TestEngineRegistry(t *testing.T) {
	names := EngineNames()
	if len(names) != 2 || names[0] != "alg1" || names[1] != "alg2" {
		t.Fatalf("EngineNames = %v, want [alg1 alg2]", names)
	}
	if len(Engines()) != len(names) {
		t.Fatalf("Engines and EngineNames disagree")
	}
	a1, ok := LookupEngine("alg1")
	if !ok || !a1.UnitWeightsOnly {
		t.Errorf("alg1 spec = %+v ok=%v, want unit-weights-only", a1, ok)
	}
	a2, ok := LookupEngine("alg2")
	if !ok || a2.UnitWeightsOnly {
		t.Errorf("alg2 spec = %+v ok=%v, want weighted", a2, ok)
	}
	if _, ok := LookupEngine("opt"); ok {
		t.Error("LookupEngine accepted an unregistered name")
	}
}

// TestEngineRegistryContract pins what the serving layer relies on from
// every registered backend: it can be built and restored, a state
// survives MarshalState → Restore → MarshalState byte for byte, fresh
// or mid-run, and Jobs accounts for every job fed.
func TestEngineRegistryContract(t *testing.T) {
	for _, spec := range Engines() {
		if spec.New == nil || spec.Restore == nil {
			t.Fatalf("%s: New or Restore is nil", spec.Name)
		}
		eng := spec.New(4, 9)
		for step := int64(0); step <= 24; step++ {
			if step%8 == 0 {
				state, err := eng.MarshalState()
				if err != nil {
					t.Fatalf("%s at %d: %v", spec.Name, step, err)
				}
				back, err := spec.Restore(4, 9, int(step/3)+1, state)
				if err != nil {
					t.Fatalf("%s at %d: restore: %v", spec.Name, step, err)
				}
				again, err := back.MarshalState()
				if err != nil {
					t.Fatalf("%s at %d: re-marshal: %v", spec.Name, step, err)
				}
				if !bytes.Equal(again, state) {
					t.Fatalf("%s at %d: state did not round-trip:\n got %x\nwant %x", spec.Name, step, again, state)
				}
			}
			var arrivals []core.Job
			if step%3 == 0 {
				arrivals = []core.Job{{ID: int(step / 3), Release: step, Weight: 1}}
			}
			eng.Step(arrivals)
			queued, starts := eng.Jobs()
			started := 0
			for _, start := range starts {
				if start >= 0 {
					started++
				}
			}
			if len(queued)+started != int(step/3)+1 || len(queued) != eng.Pending() {
				t.Fatalf("%s at %d: Jobs holds %d queued and %d started of %d fed", spec.Name, step, len(queued), started, step/3+1)
			}
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		alg  string
		t, g int64
		want string // substring of the error, "" = success
	}{
		{"alg1 ok", "alg1", 10, 32, ""},
		{"alg2 ok", "alg2", 10, 0, ""},
		{"unknown", "alg9", 10, 32, "unknown engine"},
		{"bad T", "alg1", 0, 32, "calibration length"},
		{"bad G", "alg2", 10, -1, "calibration cost"},
	} {
		eng, err := NewEngine(tc.alg, tc.t, tc.g)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			} else if eng == nil {
				t.Errorf("%s: nil engine", tc.name)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestEngineMatchesStepper pins the interface to the concrete stepper: an
// engine built by the registry behaves exactly like the directly
// constructed stepper on the same instance.
func TestEngineMatchesStepper(t *testing.T) {
	in := core.MustInstance(1, 8, []int64{0, 1, 5, 14}, []int64{3, 1, 2, 5})
	const g = 20
	eng, err := NewEngine("alg2", in.T, g)
	if err != nil {
		t.Fatal(err)
	}
	st := NewAlg2Stepper(in.T, g)
	byTime := map[int64][]core.Job{}
	for _, j := range in.Jobs {
		byTime[j.Release] = append(byTime[j.Release], j)
	}
	for eng.Pending() > 0 || eng.Now() <= in.MaxRelease() || !done(eng, in.N()) {
		if eng.Now() != st.Now() {
			t.Fatalf("clocks diverged: engine %d stepper %d", eng.Now(), st.Now())
		}
		evE := eng.Step(byTime[eng.Now()])
		evS := st.Step(byTime[st.Now()])
		if evE != evS {
			t.Fatalf("events diverged at %d: %+v vs %+v", evE.Time, evE, evS)
		}
		if eng.Now() > 10_000 {
			t.Fatal("engine did not finish")
		}
	}
	if !sameSchedule(eng.Schedule(in.N()), st.Schedule(in.N())) {
		t.Fatal("schedules diverged")
	}
}

// done reports whether every one of the n jobs is assigned.
func done(e Engine, n int) bool {
	s := e.Schedule(n)
	for _, a := range s.Assignments {
		if a.Start < 0 {
			return false
		}
	}
	return true
}
