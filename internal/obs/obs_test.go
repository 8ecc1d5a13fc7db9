package obs

import (
	"bytes"
	"strings"
	"testing"

	"oclfpga/internal/channel"
)

func sampleTimeline() *Timeline {
	r := NewRecorder("design-x", Config{SampleEvery: 100})
	r.Instant(KindLaunch, "unit:prod", "launch", 0, "")
	r.OpenWindow("fault#0", Event{Kind: KindFault, Track: "fault:pipe", Name: "freeze-read", Start: 50, Detail: "value=3"})
	r.Span(KindChanStall, "chan:pipe", "write-stall", 10, 40)
	r.CloseWindow("fault#0", 90)
	r.Span(KindUnitRun, "unit:prod", "run", 1, 120)
	r.Instant(KindBlame, "diagnosis", "stall-limit", 130, "the consumer is slow")
	r.OpenWindow("fault#1", Event{Kind: KindFault, Track: "fault:k", Name: "stuck-unit", Start: 100})
	r.Finalize(140)
	return r.Timeline()
}

func TestRecorderWindowsAndFinalize(t *testing.T) {
	tl := sampleTimeline()
	if tl.Design != "design-x" || tl.EndCycle != 140 {
		t.Fatalf("header = %q %d", tl.Design, tl.EndCycle)
	}
	if len(tl.Events) != 6 {
		t.Fatalf("got %d events: %+v", len(tl.Events), tl.Events)
	}
	// the closed window lands at its close position, the unclosed one at
	// finalize with End = end cycle
	if e := tl.Events[2]; e.Name != "freeze-read" || e.Start != 50 || e.End != 90 {
		t.Fatalf("closed window = %+v", e)
	}
	last := tl.Events[len(tl.Events)-1]
	if last.Name != "stuck-unit" || last.End != 140 {
		t.Fatalf("finalized window = %+v", last)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderDropsAfterFinalize(t *testing.T) {
	r := NewRecorder("d", Config{})
	r.Finalize(10)
	r.Span(KindUnitRun, "unit:x", "run", 0, 5)
	r.AddSample(Sample{Cycle: 10})
	tl := r.Timeline()
	if len(tl.Events) != 0 || len(r.Series().Samples) != 0 {
		t.Fatalf("post-finalize records kept: %+v", tl)
	}
	if r.DroppedEvents() != 2 || tl.DroppedEvents != 2 {
		t.Fatalf("dropped = %d / timeline %d, want 2", r.DroppedEvents(), tl.DroppedEvents)
	}
}

func TestDroppedEventsRoundTrip(t *testing.T) {
	r := NewRecorder("d", Config{})
	r.Span(KindUnitRun, "unit:x", "run", 0, 5)
	r.Finalize(10)
	r.Span(KindUnitRun, "unit:x", "run", 6, 8)
	tl := r.Timeline()
	var b bytes.Buffer
	if err := WriteTimeline(&b, tl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTimeline(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got.DroppedEvents != 1 {
		t.Fatalf("droppedEvents = %d after round trip", got.DroppedEvents)
	}
}

func TestTimelineRoundTrip(t *testing.T) {
	tl := sampleTimeline()
	var b1 bytes.Buffer
	if err := WriteTimeline(&b1, tl); err != nil {
		t.Fatal(err)
	}
	// the serialized form is trace_event JSON a viewer accepts
	s := b1.String()
	for _, want := range []string{`"traceEvents"`, `"ph": "M"`, `"ph": "X"`, `"ph": "i"`, `"thread_name"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace_event marker %s missing from:\n%s", want, s)
		}
	}
	got, err := ReadTimeline(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Design != tl.Design || got.EndCycle != tl.EndCycle {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Events) != len(tl.Events) {
		t.Fatalf("lost events: %d vs %d", len(got.Events), len(tl.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tl.Events[i] {
			t.Fatalf("event[%d] = %+v, want %+v", i, got.Events[i], tl.Events[i])
		}
	}
	// write∘read∘write is byte-stable — the verify.sh round-trip contract
	var b2 bytes.Buffer
	if err := WriteTimeline(&b2, got); err != nil {
		t.Fatal(err)
	}
	if w1, w2 := mustWrite(t, tl), b2.Bytes(); !bytes.Equal(w1, w2) {
		t.Fatal("re-encoded timeline differs byte-wise")
	}
}

func mustWrite(t *testing.T, tl *Timeline) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteTimeline(&b, tl); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestTimelineValidateRejects(t *testing.T) {
	cases := []Timeline{
		{EndCycle: 10, Events: []Event{{Kind: KindUnitRun, Name: "x", Start: 0, End: 5}}},                          // empty track
		{EndCycle: 10, Events: []Event{{Kind: KindUnitRun, Track: "t", Name: "x", Start: 6, End: 5}}},              // inverted span
		{EndCycle: 10, Events: []Event{{Kind: KindUnitRun, Track: "t", Name: "x", Start: 0, End: 11}}},             // past end
		{EndCycle: 10, Events: []Event{{Kind: KindBlame, Track: "t", Name: "x", Start: 2, End: 3, Instant: true}}}, // instant with extent
	}
	for i, tl := range cases {
		if err := tl.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, tl.Events)
		}
	}
}

func TestSeriesRoundTripAndValidate(t *testing.T) {
	s := &Series{
		Design:      "design-x",
		SampleEvery: 100,
		Samples: []Sample{
			{Cycle: 100, Channels: []ChannelSample{{Name: "pipe", Len: 2,
				Stats: channel.Stats{Writes: 7, Reads: 5, WriteStalls: 3, MaxOccupancy: 4}}}},
			{Cycle: 183, Locals: []LocalSample{{Name: "mon.tracebuf", Reads: 1, Writes: 9}}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteSeries(&b, s); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), b.Bytes()...)
	got, err := ReadSeries(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleEvery != 100 || len(got.Samples) != 2 {
		t.Fatalf("series = %+v", got)
	}
	if got.Samples[0].Channels[0].Writes != 7 || got.Samples[1].Locals[0].Writes != 9 {
		t.Fatalf("sample payload lost: %+v", got.Samples)
	}
	var b2 bytes.Buffer
	if err := WriteSeries(&b2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, b2.Bytes()) {
		t.Fatal("re-encoded series differs byte-wise")
	}

	bad := &Series{Samples: []Sample{{Cycle: 5}, {Cycle: 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-increasing sample cycles accepted")
	}
}
