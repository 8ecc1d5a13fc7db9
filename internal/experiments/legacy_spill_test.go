package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
	"oclfpga/internal/recipe"
	"oclfpga/internal/sim"
)

// legacySink rewrites a current stream into the form spills took before
// fast-forward jumps left the record: every checkpoint detail carries the
// machine's fast-forward statistics (jumps=, skipped=), and an explicit
// "ff-jump" event precedes it.
type legacySink struct {
	obs.Sink
	m *sim.Machine
}

func (s *legacySink) Event(e obs.Event) {
	if e.Kind == obs.KindCheckpoint {
		ff := s.m.FastForwardStats()
		s.Sink.Event(obs.Event{Kind: "ff-jump", Track: "sim:fast-forward", Name: "jump", Start: e.Start - 1, End: e.Start})
		e.Detail += fmt.Sprintf(" jumps=%d skipped=%d", ff.Jumps, ff.Skipped)
	}
	s.Sink.Event(e)
}

// TestLegacySpillStaysReadable pins compatibility with spills written while
// fast-forward jumps were still recorded. Such a spill loads and replays (its
// ff-jump lines as ordinary events), its checkpoints parse to the same rewind
// points as a current spill's, and query and diff answer like they do on the
// current spill — falling back to NDJSON where a sidecar still carries the
// retired jump flag. Repair fails closed: re-execution no longer reproduces
// the legacy bytes, so the damaged segment is never rewritten and the spill
// is quarantined, as oclmon's boot scrub does.
func TestLegacySpillStaysReadable(t *testing.T) {
	const (
		n           = 256
		sampleEvery = 128
		ckptEvery   = 1024
		segLines    = 64
	)
	clean := filepath.Join(t.TempDir(), "clean")
	if _, err := SpillSimBench(n, clean, sampleEvery, ckptEvery, segLines); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "legacy")
	seg, err := obs.NewSegmentSink(obs.SegmentConfig{
		Dir: dir, Design: "simbench", SampleEvery: sampleEvery, MaxLines: segLines,
		Meta: map[string]string{"workload": "simbench", "n": fmt.Sprint(n), "ckptEvery": fmt.Sprint(ckptEvery)},
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy := &legacySink{Sink: seg}
	m, _, err := setupSimBench(n, false, &obs.Config{SampleEvery: sampleEvery, CheckpointEvery: ckptEvery, Sink: legacy})
	if err != nil {
		t.Fatal(err)
	}
	legacy.m = m
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Timeline() // finalizes the recorder through the spill
	if err := m.ObserveErr(); err != nil {
		t.Fatal(err)
	}

	// Load and replay: the ff-jump lines come back as ordinary events.
	log, err := obs.LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, _, err := log.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	var jumps int
	for _, e := range tl.Events {
		if e.Kind == "ff-jump" {
			jumps++
		}
	}

	// Rewind: the legacy details parse to the current spill's checkpoints.
	want, err := query.Checkpoints(clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := query.Checkpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || jumps != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy checkpoints (%d ff-jump events) = %+v, want %+v", jumps, got, want)
	}

	// Re-set the retired jump flag (bit 1) in the sidecars, as the old index
	// builder wrote them. Such sidecars fail decode; query and diff fall
	// back to the NDJSON segments.
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	forged := 0
	for _, s := range man.Segments {
		idx, _, err := obs.EnsureSegIndex(dir, s)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := obs.LoadSegFlat(dir, s, idx.Events)
		if err != nil {
			t.Fatal(err)
		}
		flagged := false
		for i, f := range fl.Records {
			if fl.Strings[f.Kind] == "ff-jump" {
				fl.Records[i].Flags |= 2
				flagged = true
			}
		}
		if !flagged {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, obs.FlatSegmentName(s.File)), fl.AppendFlat(nil), 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.LoadSegFlat(dir, s, idx.Events); err == nil {
			t.Fatalf("%s: sidecar with the retired jump flag decoded", s.File)
		}
		forged++
	}
	if forged == 0 {
		t.Fatal("no sidecar held an ff-jump record")
	}
	for _, q := range []string{"kind=chan-stall cycles=[0,4000]", "kind=ff-jump"} {
		pq, err := query.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := query.Run(dir, pq)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		full, err := query.ScanAll(dir, pq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Events, full.Events) {
			t.Fatalf("query %q: indexed answer differs from a full scan", q)
		}
		if pq.Kind == obs.KindChanStall {
			ref, err := query.Run(clean, pq)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Events) == 0 || !reflect.DeepEqual(got.Events, ref.Events) {
				t.Fatalf("query %q: legacy spill answers %d events, current %d", q, len(got.Events), len(ref.Events))
			}
		} else if len(got.Events) != jumps {
			t.Fatalf("query %q: %d events, want %d", q, len(got.Events), jumps)
		}
	}
	rep, _, _, err := diff.CompareSpills(clean, dir, diff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != diff.Neutral {
		t.Fatalf("legacy vs current spill diff verdict %q", rep.Verdict)
	}

	// Scrub: re-execution cannot reproduce the legacy bytes, so repair must
	// fail closed and leave the damaged segment as it found it.
	first := filepath.Join(dir, man.Segments[0].File)
	if err := obs.FlipByte(first, 40); err != nil {
		t.Fatal(err)
	}
	damaged, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scrub.Repair(dir, recipe.Rebuild)
	if err == nil && res.Healthy {
		t.Fatal("repair accepted a re-execution of a legacy spill")
	}
	if after, _ := os.ReadFile(first); !bytes.Equal(after, damaged) {
		t.Fatal("failed repair rewrote the legacy segment")
	}
	if err := scrub.Quarantine(dir, "legacy spill: re-execution diverges", res.Remaining, "test"); err != nil {
		t.Fatal(err)
	}
	scan, err := scrub.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Healthy || scan.Quarantined == nil {
		t.Fatalf("legacy spill not quarantined: healthy %v, marker %+v", scan.Healthy, scan.Quarantined)
	}
}
