package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"oclfpga/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Times are host wall clock
// relative to the tracer's start; they never reach a spill or any record the
// program fingerprints.
type span struct {
	Name   string // "<layer>.<call>", e.g. "hls.compile"
	Start  time.Duration
	End    time.Duration
	Parent int // index of the enclosing span, -1 for an op's root
	Op     int // op index in the workload sequence
	Client int
	Failed bool
	// Sink is the wrapped-sink use inside this span; its time is
	// subtracted from the span's self time and reported as obs.sink.
	Sink sinkUse
}

// sinkUse is busy time and call count inside a timing-decorated sink.
type sinkUse struct {
	Busy  time.Duration
	Calls int64
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op, client int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op, Client: client})
	return len(t.spans) - 1
}

// end closes span id; err marks it failed, sink is the wrapped-sink use
// inside it.
func (t *tracer) end(id int, err error, sink sinkUse) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Failed, s.Sink = now, err != nil, sink
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent, op, client int, fn func() error) error {
	id := t.begin(name, parent, op, client)
	err := fn()
	t.end(id, err, sinkUse{})
	return err
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name   string
	Calls  int
	Failed int
	Total  time.Duration
	Self   time.Duration
}

// layerTable computes each span name's call count, failures, total and self
// time. Self time is a span's duration minus its direct children and minus
// the wrapped-sink time recorded on it; the sink time itself is reported as
// the pseudo-layer obs.sink.
func (t *tracer) layerTable() []layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerStat{}
	get := func(name string) *layerStat {
		st := by[name]
		if st == nil {
			st = &layerStat{Name: name}
			by[name] = st
		}
		return st
	}
	for i, s := range t.spans {
		st := get(s.Name)
		st.Calls++
		if s.Failed {
			st.Failed++
		}
		d := s.End - s.Start
		st.Total += d
		st.Self += d - child[i] - s.Sink.Busy
		if s.Sink.Calls > 0 {
			sk := get("obs.sink")
			sk.Calls += int(s.Sink.Calls)
			sk.Total += s.Sink.Busy
			sk.Self += s.Sink.Busy
		}
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// selfPerOp returns the mean self time per op of the spans named name, in ms.
func selfPerOp(table []layerStat, name string, ops int) float64 {
	for _, st := range table {
		if st.Name == name && ops > 0 {
			return ms(st.Self) / float64(ops)
		}
	}
	return 0
}

// writeTable prints the per-layer self-time table.
func writeTable(w io.Writer, table []layerStat, ops int) {
	fmt.Fprintf(w, "%-22s %7s %6s %12s %12s %12s\n", "span", "calls", "failed", "total_ms", "self_ms", "self_ms/op")
	for _, st := range table {
		per := 0.0
		if ops > 0 {
			per = ms(st.Self) / float64(ops)
		}
		fmt.Fprintf(w, "%-22s %7d %6d %12.3f %12.3f %12.4f\n", st.Name, st.Calls, st.Failed, ms(st.Total), ms(st.Self), per)
	}
}

// writePerfetto writes the spans as Chrome trace_event JSON (complete "X"
// events, one thread per client), which ui.perfetto.dev opens beside an
// oclprof timeline.
func (t *tracer) writePerfetto(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		args := map[string]any{"op": s.Op, "span": i, "parent": s.Parent}
		if s.Failed {
			args["failed"] = true
		}
		if s.Sink.Calls > 0 {
			args["sink_us"] = float64(s.Sink.Busy.Nanoseconds()) / 1e3
			args["sink_calls"] = s.Sink.Calls
		}
		evs = append(evs, event{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Client + 1, Args: args,
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"workload": workload, "clock": "host wall time"},
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSink is the timing decorator around an obs.Sink: it accumulates the
// busy time and call counts of the events and samples the recorder hands
// downstream. It is a counter, not a span per event, so it costs two clock
// reads per call. Finalize passes through untimed: its time is the caller's
// obs.finalize span.
type timedSink struct {
	next   obs.Sink
	use    sinkUse
	events int64
}

func (s *timedSink) Event(e obs.Event) {
	t := time.Now()
	s.next.Event(e)
	s.use.Busy += time.Since(t)
	s.use.Calls++
	s.events++
}

func (s *timedSink) Sample(smp obs.Sample) {
	t := time.Now()
	s.next.Sample(smp)
	s.use.Busy += time.Since(t)
	s.use.Calls++
}

func (s *timedSink) Finalize(endCycle int64) error { return s.next.Finalize(endCycle) }

// since returns the sink use accumulated after u0.
func (s *timedSink) since(u0 sinkUse) sinkUse {
	if s == nil {
		return sinkUse{}
	}
	return sinkUse{s.use.Busy - u0.Busy, s.use.Calls - u0.Calls}
}

// now returns the sink use so far (zero for no decorator).
func (s *timedSink) now() sinkUse {
	if s == nil {
		return sinkUse{}
	}
	return s.use
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
