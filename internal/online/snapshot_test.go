package online

import (
	"math/rand/v2"
	"strings"
	"testing"

	"calibsched/internal/core"
	"calibsched/internal/trace"
)

// TestStepperSnapshotRoundTrip is the recovery-correctness gate at the
// engine level: cutting a run at an arbitrary step, marshaling, restoring
// through the registry, and finishing must produce the schedule and
// triggers of an uninterrupted run — including cuts that land inside a
// calibrated interval.
func TestStepperSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 805))
	for trial := 0; trial < 200; trial++ {
		weighted := trial%2 == 1
		alg := "alg1"
		if weighted {
			alg = "alg2"
		}
		in := randomInstance(rng, 1, weighted)
		g := int64(rng.IntN(40))

		spec, ok := LookupEngine(alg)
		if !ok {
			t.Fatalf("engine %q not registered", alg)
		}
		byTime := map[int64][]core.Job{}
		for _, j := range in.Jobs {
			byTime[j.Release] = append(byTime[j.Release], j)
		}

		// Reference: uninterrupted run.
		ref := spec.New(in.T, g)
		scheduled := 0
		var horizon int64
		for scheduled < in.N() {
			if ref.Step(byTime[ref.Now()]).Ran >= 0 {
				scheduled++
			}
			if horizon = ref.Now(); horizon > in.MaxRelease()+1_000_000 {
				t.Fatalf("trial %d: reference run did not finish", trial)
			}
		}

		// Cut run: step to a random point, snapshot, restore, finish.
		cut := rng.Int64N(horizon + 1)
		eng := spec.New(in.T, g)
		for eng.Now() < cut {
			eng.Step(byTime[eng.Now()])
		}
		state, err := eng.MarshalState()
		if err != nil {
			t.Fatalf("trial %d: marshal at step %d: %v", trial, cut, err)
		}
		// The same state as a version 1 (JSON) snapshot must restore to
		// the same engine.
		v1, err := StateV1(state)
		if err != nil {
			t.Fatalf("trial %d: v1 encoding: %v", trial, err)
		}
		for version, enc := range [][]byte{state, v1} {
			restored, err := RestoreEngine(alg, in.T, g, in.N(), enc)
			if err != nil {
				t.Fatalf("trial %d v%d: restore at step %d: %v", trial, version+1, cut, err)
			}
			if restored.Now() != eng.Now() || restored.Pending() != eng.Pending() || restored.CalibratedNow() != eng.CalibratedNow() {
				t.Fatalf("trial %d: restored now=%d pending=%d cal=%v, want now=%d pending=%d cal=%v",
					trial, restored.Now(), restored.Pending(), restored.CalibratedNow(),
					eng.Now(), eng.Pending(), eng.CalibratedNow())
			}
			for restored.Now() < horizon {
				restored.Step(byTime[restored.Now()])
			}

			if !sameSchedule(ref.Schedule(in.N()), restored.Schedule(in.N())) {
				t.Fatalf("trial %d (%s G=%d T=%d cut=%d v%d): restored schedule differs", trial, alg, g, in.T, cut, version+1)
			}
			want, got := ref.Triggers(), restored.Triggers()
			if len(want) != len(got) {
				t.Fatalf("trial %d: %d triggers, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("trial %d: trigger %d = %v, want %v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStepperSnapshotDeterministic pins that the encoding itself is
// deterministic: two engines fed the same commands marshal to identical
// bytes (recovery diffs rely on it being a pure function of state).
func TestStepperSnapshotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	in := randomInstance(rng, 1, true)
	byTime := map[int64][]core.Job{}
	for _, j := range in.Jobs {
		byTime[j.Release] = append(byTime[j.Release], j)
	}
	a := NewAlg2Stepper(in.T, 20)
	b := NewAlg2Stepper(in.T, 20)
	for step := 0; step < 50; step++ {
		a.Step(byTime[a.Now()])
		b.Step(byTime[b.Now()])
	}
	sa, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if string(sa) != string(sb) {
		t.Fatalf("same command stream, different encodings:\n%s\n%s", sa, sb)
	}
}

// TestStepperSnapshotTracerContinuity checks that a restored engine keeps
// the decision-event sequence monotone: the next calibration after
// recovery carries Seq = calibrations-so-far + 1, not 1.
func TestStepperSnapshotTracerContinuity(t *testing.T) {
	g := int64(4)
	st := NewAlg1Stepper(2, g)
	// One lone job: its flow trigger fires after a few idle steps.
	st.Step([]core.Job{{ID: 0, Release: 0, Weight: 1}})
	for st.Pending() > 0 || st.CalibratedNow() {
		st.Step(nil)
	}
	if len(st.Triggers()) == 0 {
		t.Fatal("setup: no calibration happened")
	}
	state, err := st.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(16)
	eng, err := RestoreEngine("alg1", 2, g, 2, state, WithSink(ring))
	if err != nil {
		t.Fatal(err)
	}
	now := eng.Now()
	eng.Step([]core.Job{{ID: 1, Release: now, Weight: 1}})
	for eng.Pending() > 0 {
		eng.Step(nil)
	}
	events, _, _ := ring.Snapshot()
	if len(events) == 0 {
		t.Fatal("restored engine emitted no decision events")
	}
	if want := int64(len(st.Triggers()) + 1); events[0].Seq != want {
		t.Errorf("first post-recovery event Seq = %d, want %d", events[0].Seq, want)
	}
}

// TestRestoreEngineRejects covers the decode guards: recovery must turn
// corrupt or mismatched state into an error, never a half-restored
// engine or a panic.
func TestRestoreEngineRejects(t *testing.T) {
	good := func() []byte {
		st := NewAlg2Stepper(5, 10)
		st.Step([]core.Job{{ID: 0, Release: 0, Weight: 3}})
		b, err := st.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}()
	// v2 encodes a state at clock 3, outside any interval, after mut.
	v2 := func(mut func(*stepperState)) string {
		st := stepperState{Alg: "alg2", T: 5, G: 10, Now: 3, CalStart: -1, CalEnd: -1}
		mut(&st)
		b, err := encodeState(&st)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// base ends in the had_interval flag, the interval flow, and the
	// four empty-list counts (queue, calendar, triggers, starts), so the
	// raw rows below splice their own bytes over that tail.
	base := v2(func(st *stepperState) {})
	if _, err := RestoreEngine("alg2", 5, 10, 16, []byte(base)); err != nil {
		t.Fatalf("base v2 state does not restore: %v", err)
	}
	for _, tc := range []struct {
		name  string
		alg   string
		t, g  int64
		state string
		msg   string
	}{
		// Version 1 (JSON) rows.
		{"garbage bytes", "alg2", 5, 10, "\x00\xff not json", "decoding"},
		{"empty object", "alg2", 5, 10, "{}", "version"},
		{"future version", "alg2", 5, 10, `{"v":99,"alg":"alg2","t":5,"g":10}`, "version 99"},
		{"wrong engine", "alg1", 5, 10, string(good), `for engine "alg2"`},
		{"wrong params", "alg2", 6, 10, string(good), "T=5 G=10"},
		{"negative clock", "alg2", 5, 10, `{"v":1,"alg":"alg2","t":5,"g":10,"now":-3}`, "clock -3"},
		{"trigger mismatch", "alg2", 5, 10,
			`{"v":1,"alg":"alg2","t":5,"g":10,"calendar":[{"Machine":0,"Start":0}]}`, "triggers"},
		{"bad trigger value", "alg2", 5, 10,
			`{"v":1,"alg":"alg2","t":5,"g":10,"calendar":[{"Machine":0,"Start":0}],"triggers":[77]}`, "invalid trigger"},
		{"interval vs T", "alg2", 5, 10,
			`{"v":1,"alg":"alg2","t":5,"g":10,"cal_start":2,"cal_end":4}`, "inconsistent"},
		{"future queued job", "alg2", 5, 10,
			`{"v":1,"alg":"alg2","t":5,"g":10,"now":3,"cal_start":-1,"cal_end":-1,"queue":[{"ID":0,"Release":9,"Weight":1}]}`, "released at 9"},
		{"weightless queued job", "alg2", 5, 10,
			`{"v":1,"alg":"alg2","t":5,"g":10,"now":3,"cal_start":-1,"cal_end":-1,"queue":[{"ID":0,"Release":1,"Weight":0}]}`, "weight 0"},
		{"start beyond clock", "alg2", 5, 10,
			`{"v":1,"alg":"alg2","t":5,"g":10,"now":3,"cal_start":-1,"cal_end":-1,"starts":[{"job":0,"start":7}]}`, "outside"},
		{"started ID past the job limit", "alg2", 5, 10,
			`{"v":1,"alg":"alg2","t":5,"g":10,"now":3,"cal_start":-1,"cal_end":-1,"starts":[{"job":1099511627776,"start":0}]}`, "started job ID"},
		{"queued ID past the job limit", "alg2", 5, 10,
			`{"v":1,"alg":"alg2","t":5,"g":10,"now":3,"cal_start":-1,"cal_end":-1,"queue":[{"ID":1099511627776,"Release":1,"Weight":1}]}`, "queued job ID"},
		// Version 2 (binary) rows: one per loadState guard, then the
		// encoding's own.
		{"v2 wrong engine", "alg1", 5, 10, v2(func(st *stepperState) {}), `for engine "alg2"`},
		{"v2 wrong params", "alg2", 5, 11, v2(func(st *stepperState) {}), "T=5 G=10"},
		{"v2 negative clock", "alg2", 5, 10, v2(func(st *stepperState) { st.Now = -3 }), "clock -3"},
		{"v2 trigger mismatch", "alg2", 5, 10,
			v2(func(st *stepperState) { st.Calendar = []core.Calibration{{Start: 0}} }), "triggers"},
		{"v2 bad trigger value", "alg2", 5, 10, v2(func(st *stepperState) {
			st.Calendar, st.Triggers = []core.Calibration{{Start: 0}}, []Trigger{77}
		}), "invalid trigger"},
		{"v2 interval vs T", "alg2", 5, 10,
			v2(func(st *stepperState) { st.CalStart, st.CalEnd = 2, 4 }), "inconsistent"},
		{"v2 future queued job", "alg2", 5, 10,
			v2(func(st *stepperState) { st.Queue = []core.Job{{ID: 0, Release: 9, Weight: 1}} }), "released at 9"},
		{"v2 weightless queued job", "alg2", 5, 10,
			v2(func(st *stepperState) { st.Queue = []core.Job{{ID: 0, Release: 1, Weight: 0}} }), "weight 0"},
		{"v2 start beyond clock", "alg2", 5, 10,
			v2(func(st *stepperState) { st.Starts = []startEntry{{Job: 0, Start: 7}} }), "outside"},
		{"v2 started ID past the job limit", "alg2", 5, 10,
			v2(func(st *stepperState) { st.Starts = []startEntry{{Job: 1 << 40, Start: 0}} }), "started job ID 1099511627776"},
		{"v2 negative started ID", "alg2", 5, 10,
			v2(func(st *stepperState) { st.Starts = []startEntry{{Job: -1, Start: 0}} }), "started job ID -1"},
		{"v2 queued ID past the job limit", "alg2", 5, 10,
			v2(func(st *stepperState) { st.Queue = []core.Job{{ID: 1 << 40, Release: 1, Weight: 1}} }), "queued job ID 1099511627776"},
		{"v2 negative queued ID", "alg2", 5, 10,
			v2(func(st *stepperState) { st.Queue = []core.Job{{ID: -2, Release: 1, Weight: 1}} }), "queued job ID -2"},
		{"v2 future version", "alg2", 5, 10, "\x03", "version 3"},
		{"empty", "alg2", 5, 10, "", "empty state"},
		{"v2 truncated varint", "alg2", 5, 10, base[:len(base)-1] + "\x80", "truncated varint"},
		{"v2 overlong varint", "alg2", 5, 10, "\x02\x84\x00alg2", "overlong"},
		{"v2 trailing bytes", "alg2", 5, 10, base + "\x00", "trailing"},
		{"v2 count beyond payload", "alg2", 5, 10, base[:len(base)-1] + "\x05\x00\x02", "exceeds"},
		{"v2 bad interval flag", "alg2", 5, 10, base[:len(base)-6] + "\x07\x00\x00\x00\x00\x00", "had_interval"},
		{"v2 starts not ascending", "alg2", 5, 10,
			base[:len(base)-1] + "\x02\x06\x02\x00\x02", "strictly ascending"},
		{"v2 queue not ascending", "alg2", 5, 10,
			base[:len(base)-4] + "\x02\x00\x02\x02\x00\x02\x02\x00\x00\x00", "strictly ascending"},
		// Parameter checks, on a good state.
		{"unknown engine", "nope", 5, 10, string(good), "unknown engine"},
		{"bad T", "alg2", 0, 10, string(good), "T = 0"},
		{"bad G", "alg2", 5, -1, string(good), "G = -1"},
	} {
		if _, err := RestoreEngine(tc.alg, tc.t, tc.g, 16, []byte(tc.state)); err == nil {
			t.Errorf("%s: restore succeeded, want error", tc.name)
		} else if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.msg)
		}
	}
}

// TestRestoreEngineJobLimit: a restore of n jobs admits job IDs below n
// and rejects the rest, queued or started, before sizing anything by
// them.
func TestRestoreEngineJobLimit(t *testing.T) {
	state, err := encodeState(&stepperState{
		Alg: "alg2", T: 5, G: 10, Now: 3, CalStart: -1, CalEnd: -1,
		Queue:  []core.Job{{ID: 1, Release: 1, Weight: 1}},
		Starts: []startEntry{{Job: 0, Start: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for jobs, ok := range map[int]bool{1: false, 2: true, 3: true} {
		_, err := RestoreEngine("alg2", 5, 10, jobs, state)
		if (err == nil) != ok {
			t.Errorf("%d jobs: restore error %v, want success %v", jobs, err, ok)
		}
	}
	if _, err := RestoreEngine("alg2", 5, 10, 1, state); err == nil || !strings.Contains(err.Error(), "queued job ID 1 outside [0,1)") {
		t.Errorf("1 job: error %v, want the queued ID named", err)
	}
}
