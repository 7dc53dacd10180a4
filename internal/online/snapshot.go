package online

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"calibsched/internal/binenc"
	"calibsched/internal/core"
)

// Engine state snapshots.
//
// calibstore (internal/store) persists each serving session as a
// write-ahead log of its deterministic command stream plus periodic
// snapshots that let recovery skip replaying the whole history. The
// snapshot needs the engine's internal state in a stable, versioned
// encoding: every Engine implements Snapshotter, and every EngineSpec
// registers the matching Restore constructor.

// Snapshotter is the part of Engine that captures its full state for
// crash recovery and migration. MarshalState must be deterministic given
// the same engine state (recovered and never-killed servers are
// differentially compared) and must round-trip exactly through the
// spec's Restore.
type Snapshotter interface {
	// MarshalState encodes the engine's complete state. The encoding is
	// owned by the engine; callers treat it as opaque bytes.
	MarshalState() ([]byte, error)
}

// stepperStateVersion is the Stepper encoding MarshalState emits.
// Version 1 (JSON, the stepperState field tags) is still restored, so
// snapshot files older nodes wrote load; decode dispatches on its
// leading '{'.
//
// Version 2 is binary:
//
//	u8       version (2)
//	bytes    alg               uvarint length + bytes
//	varint   t, g, now, cal_start, cal_end
//	u8       had_interval      0 or 1
//	varint   interval_flow
//	uvarint  queue length, then per job in ID order: the ID (the first
//	         as a varint, each later one as a uvarint gap >= 1), varint
//	         release minus the previous job's (0 before the first),
//	         varint weight
//	uvarint  calendar length, then per entry: varint machine, varint
//	         start minus the previous entry's
//	uvarint  trigger count, then one byte per trigger
//	uvarint  start count, then per entry in job order: the job ID as in
//	         the queue, varint start minus the previous entry's
const stepperStateVersion = 2

// startEntry is one (job, start) pair of the stepper's assignment map,
// kept sorted by job ID so the encoding is deterministic.
type startEntry struct {
	Job   int   `json:"job"`
	Start int64 `json:"start"`
}

// stepperState is the serialized form of a Stepper, filled by either
// version's decoder. Queue holds the waiting jobs sorted by ID: the
// queue's pop order is a total order (ties always break on ID), so
// rebuilding the heap by pushing in ID order reproduces the exact pop
// sequence regardless of the original heap layout.
type stepperState struct {
	Version      int                `json:"v"`
	Alg          string             `json:"alg"`
	T            int64              `json:"t"`
	G            int64              `json:"g"`
	Now          int64              `json:"now"`
	CalStart     int64              `json:"cal_start"`
	CalEnd       int64              `json:"cal_end"`
	HadInterval  bool               `json:"had_interval"`
	IntervalFlow int64              `json:"interval_flow"`
	Queue        []core.Job         `json:"queue"`
	Calendar     []core.Calibration `json:"calendar"`
	Triggers     []Trigger          `json:"triggers"`
	Starts       []startEntry       `json:"starts"`
}

// MarshalState encodes the stepper for crash recovery; see Snapshotter.
func (s *Stepper) MarshalState() ([]byte, error) {
	st := stepperState{
		Alg:          s.pol.alg,
		T:            s.T,
		G:            s.g,
		Now:          s.t,
		CalStart:     s.calStart,
		CalEnd:       s.calEnd,
		HadInterval:  s.hadInterval,
		IntervalFlow: s.intervalFlow,
		Queue:        append([]core.Job(nil), s.q.Jobs()...),
		Calendar:     s.calendar,
		Triggers:     s.triggers,
		Starts:       make([]startEntry, 0, len(s.starts)),
	}
	slices.SortFunc(st.Queue, func(a, b core.Job) int { return cmp.Compare(a.ID, b.ID) })
	for id, start := range s.starts {
		if start >= 0 {
			st.Starts = append(st.Starts, startEntry{Job: id, Start: start})
		}
	}
	return encodeState(&st)
}

// encodeState writes st as version 2. It fails on queue or start IDs
// that are not strictly ascending, which no live stepper holds.
func encodeState(st *stepperState) ([]byte, error) {
	b := make([]byte, 0, 64+6*len(st.Queue)+4*len(st.Calendar)+4*len(st.Starts))
	b = append(b, stepperStateVersion)
	b = binenc.AppendBytes(b, []byte(st.Alg))
	for _, v := range []int64{st.T, st.G, st.Now, st.CalStart, st.CalEnd} {
		b = binary.AppendVarint(b, v)
	}
	had := byte(0)
	if st.HadInterval {
		had = 1
	}
	b = append(b, had)
	b = binary.AppendVarint(b, st.IntervalFlow)
	var err error
	b = binary.AppendUvarint(b, uint64(len(st.Queue)))
	var rel int64
	for i, j := range st.Queue {
		if b, err = binenc.AppendID(b, i, st.Queue[max(i-1, 0)].ID, j.ID); err != nil {
			return nil, fmt.Errorf("online: encoding queue: %w", err)
		}
		b = binary.AppendVarint(b, j.Release-rel)
		b = binary.AppendVarint(b, j.Weight)
		rel = j.Release
	}
	b = binary.AppendUvarint(b, uint64(len(st.Calendar)))
	var start int64
	for _, c := range st.Calendar {
		b = binary.AppendVarint(b, int64(c.Machine))
		b = binary.AppendVarint(b, c.Start-start)
		start = c.Start
	}
	b = binary.AppendUvarint(b, uint64(len(st.Triggers)))
	for _, tr := range st.Triggers {
		b = append(b, byte(tr))
	}
	b = binary.AppendUvarint(b, uint64(len(st.Starts)))
	start = 0
	for i, e := range st.Starts {
		if b, err = binenc.AppendID(b, i, st.Starts[max(i-1, 0)].Job, e.Job); err != nil {
			return nil, fmt.Errorf("online: encoding starts: %w", err)
		}
		b = binary.AppendVarint(b, e.Start-start)
		start = e.Start
	}
	return b, nil
}

// decodeState parses either version into a stepperState. It checks only
// the encoding; loadState checks the state.
func decodeState(data []byte) (*stepperState, error) {
	var st stepperState
	switch {
	case len(data) == 0:
		return nil, fmt.Errorf("empty state")
	case data[0] == '{':
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
		if st.Version != 1 {
			return nil, fmt.Errorf("state version %d, want 1 or %d", st.Version, stepperStateVersion)
		}
		return &st, nil
	case data[0] != stepperStateVersion:
		return nil, fmt.Errorf("state version %d, want 1 or %d", data[0], stepperStateVersion)
	}
	r := binenc.NewReader(data[1:]) // after the version byte
	st.Version = stepperStateVersion
	st.Alg = string(r.Bytes())
	for _, v := range []*int64{&st.T, &st.G, &st.Now, &st.CalStart, &st.CalEnd} {
		*v = r.Varint()
	}
	switch r.Byte() {
	case 0:
	case 1:
		st.HadInterval = true
	default:
		return nil, fmt.Errorf("%w: had_interval flag", binenc.ErrMalformed)
	}
	st.IntervalFlow = r.Varint()
	st.Queue = make([]core.Job, r.Count(3))
	var rel int64
	for i := range st.Queue {
		j := &st.Queue[i]
		j.ID = r.ID(i, st.Queue[max(i-1, 0)].ID)
		rel += r.Varint()
		j.Release, j.Weight = rel, r.Varint()
	}
	st.Calendar = make([]core.Calibration, r.Count(2))
	var start int64
	for i := range st.Calendar {
		st.Calendar[i].Machine = int(r.Varint())
		start += r.Varint()
		st.Calendar[i].Start = start
	}
	st.Triggers = make([]Trigger, r.Count(1))
	for i := range st.Triggers {
		st.Triggers[i] = Trigger(r.Byte())
	}
	st.Starts = make([]startEntry, r.Count(2))
	start = 0
	for i := range st.Starts {
		st.Starts[i].Job = r.ID(i, st.Starts[max(i-1, 0)].Job)
		start += r.Varint()
		st.Starts[i].Start = start
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &st, nil
}

// loadState restores a freshly constructed stepper to the encoded state.
// The stepper must have been built by the same spec (alg, T, G) that
// produced the encoding. Every job ID must lie in [0, jobs), which
// bounds the starts slice it allocates.
func (s *Stepper) loadState(alg string, data []byte, jobs int) error {
	st, err := decodeState(data)
	if err != nil {
		return fmt.Errorf("online: decoding %s state: %w", alg, err)
	}
	if st.Alg != alg {
		return fmt.Errorf("online: state is for engine %q, restoring %q", st.Alg, alg)
	}
	if st.T != s.T || st.G != s.g {
		return fmt.Errorf("online: state has T=%d G=%d, engine has T=%d G=%d", st.T, st.G, s.T, s.g)
	}
	if st.Now < 0 {
		return fmt.Errorf("online: state clock %d, want >= 0", st.Now)
	}
	if len(st.Triggers) != len(st.Calendar) {
		return fmt.Errorf("online: state has %d triggers for %d calendar entries", len(st.Triggers), len(st.Calendar))
	}
	for _, tr := range st.Triggers {
		if tr == TriggerNone || tr > TriggerImmediate {
			return fmt.Errorf("online: state has invalid trigger %d", tr)
		}
	}
	if st.CalStart >= 0 && st.CalEnd != st.CalStart+st.T {
		return fmt.Errorf("online: state interval [%d,%d) inconsistent with T=%d", st.CalStart, st.CalEnd, st.T)
	}
	for _, j := range st.Queue {
		if j.ID < 0 || j.ID >= jobs {
			return fmt.Errorf("online: queued job ID %d outside [0,%d)", j.ID, jobs)
		}
		if j.Release > st.Now {
			return fmt.Errorf("online: queued job %d released at %d after state clock %d", j.ID, j.Release, st.Now)
		}
		if j.Weight < 1 {
			return fmt.Errorf("online: queued job %d has weight %d, want >= 1", j.ID, j.Weight)
		}
	}
	s.t = st.Now
	s.calStart, s.calEnd = st.CalStart, st.CalEnd
	s.hadInterval = st.HadInterval
	s.intervalFlow = st.IntervalFlow
	for _, j := range st.Queue {
		s.q.Push(j)
	}
	s.calendar = append(s.calendar[:0], st.Calendar...)
	s.triggers = append(s.triggers[:0], st.Triggers...)
	size := 0
	for _, e := range st.Starts {
		if e.Job < 0 || e.Job >= jobs {
			return fmt.Errorf("online: started job ID %d outside [0,%d)", e.Job, jobs)
		}
		if e.Start < 0 || e.Start >= st.Now {
			return fmt.Errorf("online: job %d started at %d outside [0,%d)", e.Job, e.Start, st.Now)
		}
		size = max(size, e.Job+1)
	}
	s.starts = make([]int64, size)
	for i := range s.starts {
		s.starts[i] = -1
	}
	for _, e := range st.Starts {
		s.starts[e.Job] = e.Start
	}
	// Keep the decision-event sequence continuous across recovery: the
	// next calibration's trace Seq follows the restored calendar.
	if s.tracer != nil {
		s.tracer.seq = int64(len(s.calendar))
	}
	return nil
}

// restoreStepper adapts a stepper constructor into an EngineSpec.Restore.
func restoreStepper(alg string, build func(t, g int64, opts ...Option) *Stepper) func(t, g int64, jobs int, state []byte, opts ...Option) (Engine, error) {
	return func(t, g int64, jobs int, state []byte, opts ...Option) (Engine, error) {
		st := build(t, g, opts...)
		if err := st.loadState(alg, state, jobs); err != nil {
			return nil, err
		}
		return st, nil
	}
}

// RestoreEngine validates the parameters and reconstructs the named
// backend from a state snapshot produced by its MarshalState, holding
// only jobs with IDs in [0, jobs) (see EngineSpec.Restore).
func RestoreEngine(name string, t, g int64, jobs int, state []byte, opts ...Option) (Engine, error) {
	spec, ok := LookupEngine(name)
	if !ok {
		return nil, fmt.Errorf("online: unknown engine %q", name)
	}
	if t < 1 {
		return nil, fmt.Errorf("online: calibration length T = %d, want >= 1", t)
	}
	if g < 0 {
		return nil, fmt.Errorf("online: calibration cost G = %d, want >= 0", g)
	}
	return spec.Restore(t, g, jobs, state, opts...)
}
