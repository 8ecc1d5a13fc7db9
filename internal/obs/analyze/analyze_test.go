package analyze

import (
	"bytes"
	"strings"
	"testing"

	"oclfpga/internal/obs"
)

func testTimeline() *obs.Timeline {
	return &obs.Timeline{
		Design:   "design-x",
		EndCycle: 1000,
		Events: []obs.Event{
			{Kind: obs.KindLaunch, Track: "unit:consumer", Name: "launch", Start: 0, End: 0, Instant: true},
			{Kind: obs.KindUnitRun, Track: "unit:producer", Name: "run", Start: 1, End: 400},
			{Kind: obs.KindUnitRun, Track: "unit:consumer", Name: "run", Start: 1, End: 900},
			{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 10, End: 59, Detail: "unit=consumer"},
			{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 100, End: 149, Detail: "unit=consumer"},
			{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "write-stall", Start: 30, End: 49, Detail: "unit=producer"},
			{Kind: obs.KindLineFetch, Track: "lsu:consumer/tbl#1", Name: "burst", Start: 200, End: 299},
			{Kind: obs.KindLineFetch, Track: "lsu:consumer/tbl#1", Name: "burst", Start: 250, End: 269},
		},
	}
}

func TestAttribute(t *testing.T) {
	a := Attribute(testTimeline())
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.TotalStallCycles != 50+50+20+100+20 {
		t.Fatalf("totalStallCycles = %d", a.TotalStallCycles)
	}
	if len(a.Rows) != 3 {
		t.Fatalf("rows = %+v", a.Rows)
	}
	// heaviest first: line-fetch 120, read-stall 100, write-stall 20
	if r := a.Rows[0]; r.Unit != "consumer" || r.Op != "line-fetch:burst" || r.Resource != "tbl#1" ||
		r.Cycles != 120 || r.Spans != 2 || r.MaxSpan != 100 {
		t.Fatalf("rows[0] = %+v", r)
	}
	if r := a.Rows[1]; r.Op != "read-stall" || r.Resource != "pipe" || r.Cycles != 100 || r.MaxSpan != 50 {
		t.Fatalf("rows[1] = %+v", r)
	}
	if r := a.Rows[2]; r.Unit != "producer" || r.Op != "write-stall" || r.Cycles != 20 {
		t.Fatalf("rows[2] = %+v", r)
	}

	// end-to-end critical path: 10-59 (50) + 100-149 (50) + 200-299 (100) =
	// 200 beats any chain using the overlapping 250-269 or 30-49 spans
	if a.CriticalCycles != 200 || len(a.CriticalPath) != 3 {
		t.Fatalf("critical = %d %+v", a.CriticalCycles, a.CriticalPath)
	}
	if a.CriticalPath[2].Op != "line-fetch:burst" || a.CriticalPath[0].Start != 10 {
		t.Fatalf("critical chain = %+v", a.CriticalPath)
	}

	// per-unit: producer has its lone 20-cycle span; consumer the 200 chain
	if len(a.Units) != 2 {
		t.Fatalf("units = %+v", a.Units)
	}
	if u := a.Units[0]; u.Unit != "consumer" || u.StallCycles != 200 || u.RunCycles != 900 {
		t.Fatalf("units[0] = %+v", u)
	}
	if u := a.Units[1]; u.Unit != "producer" || u.StallCycles != 20 || u.RunCycles != 400 {
		t.Fatalf("units[1] = %+v", u)
	}
}

// TestAttributeRecorderMatchesTimeline pins the flat read path: attributing
// straight off a recorder's fixed-width records must serialize identically to
// attributing the materialized timeline — both for hot-path records carrying
// the TmplUnit detail by ID and for replayed records whose detail was
// interned as a literal "unit=..." string.
func TestAttributeRecorderMatchesTimeline(t *testing.T) {
	build := func(viaReplay bool) *obs.Recorder {
		r := obs.NewRecorder("design-x", obs.Config{})
		if viaReplay {
			// The NDJSON-replay shape: string events through Add, details
			// pre-rendered.
			for _, e := range testTimeline().Events {
				r.Add(e)
			}
		} else {
			// The simulator's hot-path shape: interned IDs, lazy details.
			kRun, kStall, kFetch := r.Intern(obs.KindUnitRun), r.Intern(obs.KindChanStall), r.Intern(obs.KindLineFetch)
			pipe := r.Intern("chan:pipe")
			read, write := r.Intern("read-stall"), r.Intern("write-stall")
			prod, cons := r.Intern("producer"), r.Intern("consumer")
			r.InstantID(r.Intern(obs.KindLaunch), r.Intern("unit:consumer"), r.Intern("launch"), 0, obs.NoDetail)
			r.SpanID(kRun, r.Intern("unit:producer"), r.Intern("run"), 1, 400)
			r.SpanID(kRun, r.Intern("unit:consumer"), r.Intern("run"), 1, 900)
			r.SpanDetailID(kStall, pipe, read, 10, 59, obs.UnitDetail(cons))
			r.SpanDetailID(kStall, pipe, read, 100, 149, obs.UnitDetail(cons))
			r.SpanDetailID(kStall, pipe, write, 30, 49, obs.UnitDetail(prod))
			r.SpanID(kFetch, r.Intern("lsu:consumer/tbl#1"), r.Intern("burst"), 200, 299)
			r.SpanID(kFetch, r.Intern("lsu:consumer/tbl#1"), r.Intern("burst"), 250, 269)
		}
		// A legacy fast-forward jump line (spills written before jumps
		// left the record) must not contribute to attribution.
		r.Add(obs.Event{Kind: "ff-jump", Track: "sim:fast-forward", Name: "jump", Start: 950, End: 999})
		if err := r.Finalize(1000); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, viaReplay := range []bool{false, true} {
		r := build(viaReplay)
		var flat, mat bytes.Buffer
		if err := WriteJSON(&flat, AttributeRecorder(r)); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&mat, Attribute(r.Timeline())); err != nil {
			t.Fatal(err)
		}
		if flat.String() != mat.String() {
			t.Fatalf("viaReplay=%v: flat and materialized attributions diverge:\n%s\nvs\n%s",
				viaReplay, flat.String(), mat.String())
		}
		if err := AttributeRecorder(r).Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// And the flat path over the hot-path recorder must equal the reference
	// fixture analysis exactly.
	var a, b bytes.Buffer
	if err := WriteJSON(&a, AttributeRecorder(build(false))); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, Attribute(testTimeline())); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("flat attribution diverges from fixture:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestAttributeEmpty(t *testing.T) {
	a := Attribute(&obs.Timeline{Design: "d", EndCycle: 5})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 0 || a.CriticalCycles != 0 || a.TotalStallCycles != 0 {
		t.Fatalf("non-empty attribution from empty timeline: %+v", a)
	}
}

func TestLongestChainPicksWeight(t *testing.T) {
	// one long span vs many short ones that fit around it
	links := []ChainLink{
		{Op: "a", Start: 0, End: 99},
		{Op: "b", Start: 10, End: 19},
		{Op: "c", Start: 30, End: 39},
		{Op: "d", Start: 120, End: 129},
	}
	chain, w := longestChain(links)
	if w != 110 {
		t.Fatalf("weight = %d", w)
	}
	if len(chain) != 2 || chain[0].Op != "a" || chain[1].Op != "d" {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestJSONRoundTripByteStable(t *testing.T) {
	a := Attribute(testTimeline())
	var b1 bytes.Buffer
	if err := WriteJSON(&b1, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := WriteJSON(&b2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("re-encoded attribution differs byte-wise")
	}
}

func TestValidateRejects(t *testing.T) {
	a := Attribute(testTimeline())
	a.TotalStallCycles++
	if err := a.Validate(); err == nil {
		t.Fatal("bad total accepted")
	}
	a = Attribute(testTimeline())
	a.Rows[0], a.Rows[2] = a.Rows[2], a.Rows[0]
	if err := a.Validate(); err == nil {
		t.Fatal("unsorted rows accepted")
	}
	a = Attribute(testTimeline())
	if len(a.CriticalPath) >= 2 {
		a.CriticalPath[1].Start = a.CriticalPath[0].End // overlap
		if err := a.Validate(); err == nil {
			t.Fatal("overlapping chain accepted")
		}
	}
}

func TestFolded(t *testing.T) {
	a := Attribute(testTimeline())
	var b bytes.Buffer
	if err := WriteFolded(&b, a); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("folded lines: %q", lines)
	}
	if lines[0] != "consumer;line-fetch:burst;tbl#1 120" {
		t.Fatalf("folded[0] = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "producer;write-stall;pipe ") {
		t.Fatalf("folded[2] = %q", lines[2])
	}
}

func TestPprofRoundTrip(t *testing.T) {
	a := Attribute(testTimeline())
	var b bytes.Buffer
	if err := WritePprof(&b, a); err != nil {
		t.Fatal(err)
	}
	sum, err := CheckPprof(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != len(a.Rows) {
		t.Fatalf("samples = %d, want %d", sum.Samples, len(a.Rows))
	}
	if sum.TotalValue != a.TotalStallCycles {
		t.Fatalf("total = %d, want %d", sum.TotalValue, a.TotalStallCycles)
	}
	if sum.SampleTypes != 2 {
		t.Fatalf("sample types = %d", sum.SampleTypes)
	}
	// 3 rows over frames: consumer, producer, line-fetch:burst, read-stall,
	// write-stall, tbl#1, pipe = 7 distinct frames
	if sum.Locations != 7 || sum.Functions != 7 {
		t.Fatalf("locations/functions = %d/%d", sum.Locations, sum.Functions)
	}
	if _, err := CheckPprof(b.Bytes()[:len(b.Bytes())/2]); err == nil {
		t.Fatal("truncated profile accepted")
	}
}

func TestCheckPprofRejectsGarbage(t *testing.T) {
	if _, err := CheckPprof([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted")
	}
}
