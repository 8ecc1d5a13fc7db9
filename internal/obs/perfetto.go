package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The timeline's on-disk form IS the Chrome/Perfetto trace_event JSON object
// format: {"traceEvents":[...]} with "M" metadata naming one thread per
// track, "X" complete events for spans, and "i" instants. A file written by
// WriteTimeline loads directly in ui.perfetto.dev / chrome://tracing, and
// ReadTimeline parses it back losslessly (the extra fields the viewer
// ignores, otherData, carry what the viewer does not need). One cycle is
// rendered as one microsecond — the trace_event clock unit — so viewer
// durations read as cycle counts.

// traceEvent is one entry of the trace_event "traceEvents" array.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// traceDoc is the trace_event JSON object format container.
type traceDoc struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

const tracePid = 1

// timelineTracks returns the sorted set of track names used by the timeline;
// a track's 1-based position is its trace_event tid.
func timelineTracks(t *Timeline) []string {
	seen := map[string]bool{}
	var tracks []string
	for _, e := range t.Events {
		if !seen[e.Track] {
			seen[e.Track] = true
			tracks = append(tracks, e.Track)
		}
	}
	sort.Strings(tracks)
	return tracks
}

func toTraceEvent(e Event, tid int) traceEvent {
	te := traceEvent{Name: e.Name, Cat: e.Kind, Ts: e.Start, Pid: tracePid, Tid: tid}
	if e.Instant {
		te.Ph = "i"
		te.S = "t"
	} else {
		te.Ph = "X"
		te.Dur = e.End - e.Start + 1
	}
	if e.Detail != "" {
		te.Args = map[string]string{"detail": e.Detail}
	}
	return te
}

// WriteTimeline serializes the timeline as trace_event JSON. The output is
// deterministic: identical timelines marshal to identical bytes, which is
// what lets the equivalence suite compare runs byte for byte.
func WriteTimeline(w io.Writer, t *Timeline) error {
	tracks := timelineTracks(t)
	tid := make(map[string]int, len(tracks))
	doc := traceDoc{
		DisplayTimeUnit: "ns",
		OtherData: map[string]string{
			"design":   t.Design,
			"endCycle": strconv.FormatInt(t.EndCycle, 10),
		},
	}
	if t.DroppedEvents != 0 {
		// only when non-zero, so timelines written before the drop guard
		// existed still round-trip byte-identically
		doc.OtherData["droppedEvents"] = strconv.FormatInt(t.DroppedEvents, 10)
	}
	doc.TraceEvents = append(doc.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]string{"name": t.Design},
	})
	for i, tr := range tracks {
		tid[tr] = i + 1
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: i + 1,
			Args: map[string]string{"name": tr},
		})
	}
	for _, e := range t.Events {
		doc.TraceEvents = append(doc.TraceEvents, toTraceEvent(e, tid[e.Track]))
	}
	buf, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ReadTimeline parses trace_event JSON produced by WriteTimeline back into a
// Timeline. Event order is preserved, so Read∘Write is the identity and
// Write∘Read∘Write is byte-stable — the codec round-trip scripts/verify.sh
// checks.
func ReadTimeline(r io.Reader) (*Timeline, error) {
	var doc traceDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: timeline: %w", err)
	}
	t := &Timeline{}
	trackOf := map[int]string{}
	for _, te := range doc.TraceEvents {
		if te.Ph != "M" {
			continue
		}
		switch te.Name {
		case "process_name":
			t.Design = te.Args["name"]
		case "thread_name":
			trackOf[te.Tid] = te.Args["name"]
		}
	}
	if d := doc.OtherData["design"]; d != "" {
		t.Design = d
	}
	if ec := doc.OtherData["endCycle"]; ec != "" {
		v, err := strconv.ParseInt(ec, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: timeline: bad endCycle %q", ec)
		}
		t.EndCycle = v
	}
	if de := doc.OtherData["droppedEvents"]; de != "" {
		v, err := strconv.ParseInt(de, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: timeline: bad droppedEvents %q", de)
		}
		t.DroppedEvents = v
	}
	for _, te := range doc.TraceEvents {
		switch te.Ph {
		case "M":
			continue
		case "X", "i", "I":
			e := Event{
				Kind:   te.Cat,
				Track:  trackOf[te.Tid],
				Name:   te.Name,
				Start:  te.Ts,
				End:    te.Ts,
				Detail: te.Args["detail"],
			}
			if te.Ph == "X" {
				e.End = te.Ts + te.Dur - 1
			} else {
				e.Instant = true
			}
			t.Events = append(t.Events, e)
		default:
			return nil, fmt.Errorf("obs: timeline: unsupported event phase %q", te.Ph)
		}
	}
	return t, nil
}

// Validate checks a timeline's internal consistency: well-formed spans,
// named tracks, instants with zero extent, nothing past the end cycle, and a
// non-negative dropped-event count.
func (t *Timeline) Validate() error {
	if t.DroppedEvents < 0 {
		return fmt.Errorf("obs: timeline: negative droppedEvents %d", t.DroppedEvents)
	}
	for i, e := range t.Events {
		switch {
		case e.Track == "":
			return fmt.Errorf("obs: event[%d]: empty track", i)
		case e.Kind == "":
			return fmt.Errorf("obs: event[%d]: empty kind", i)
		case e.Start < 0 || e.End < e.Start:
			return fmt.Errorf("obs: event[%d] %s: bad interval [%d,%d]", i, e.Name, e.Start, e.End)
		case e.Instant && e.Start != e.End:
			return fmt.Errorf("obs: event[%d] %s: instant with extent [%d,%d]", i, e.Name, e.Start, e.End)
		case e.End > t.EndCycle:
			return fmt.Errorf("obs: event[%d] %s: ends at %d past end cycle %d", i, e.Name, e.End, t.EndCycle)
		}
	}
	return nil
}
