package experiments

import (
	"bytes"
	"testing"

	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
)

// captureSpilled runs fn with an NDJSON spill sink attached to every machine
// it creates, then replays each spill through a fresh buffering recorder.
// Per machine it returns the direct in-memory timeline, the replayed
// timeline, and the replayed metrics series, all serialized.
func captureSpilled(t *testing.T, fn func() error) (direct, replayed, replayedSeries [][]byte) {
	t.Helper()
	var spills []*bytes.Buffer
	EnableObserveSinkForTest(128, func(design string, sampleEvery int64) obs.Sink {
		b := &bytes.Buffer{}
		spills = append(spills, b)
		return obs.NewNDJSONSink(b, design, sampleEvery)
	})
	err := fn()
	ms := DisableObserveForTest()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || len(ms) != len(spills) {
		t.Fatalf("machines/spills mismatch: %d vs %d", len(ms), len(spills))
	}
	marshal := func(tl *obs.Timeline) []byte {
		var b bytes.Buffer
		if err := obs.WriteTimeline(&b, tl); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for i, m := range ms {
		// Timeline() finalizes the recorder, flushing the spill's terminal
		// line — the replay below requires a complete stream.
		direct = append(direct, marshal(m.Timeline()))
		if err := m.ObserveErr(); err != nil {
			t.Fatal(err)
		}
		tl, series, err := obs.ReplayNDJSON(bytes.NewReader(spills[i].Bytes()))
		if err != nil {
			t.Fatalf("machine %d: replay: %v", i, err)
		}
		replayed = append(replayed, marshal(tl))
		var bs bytes.Buffer
		if err := obs.WriteSeries(&bs, series); err != nil {
			t.Fatal(err)
		}
		replayedSeries = append(replayedSeries, bs.Bytes())
	}
	return direct, replayed, replayedSeries
}

// TestObserveStreamingEquivalence extends the fast-forward equivalence gate
// to the streaming pipeline: the NDJSON spill a sink captured during the run,
// replayed through a fresh buffering recorder, must reproduce the in-memory
// timeline byte for byte — and the replayed record must itself be identical
// between single-stepped and fast-forwarded runs. A streaming consumer
// therefore sees exactly the bytes a post-mortem reader sees, regardless of
// how the simulator got there.
func TestObserveStreamingEquivalence(t *testing.T) {
	defer sim.SetFastForwardDisabled(false)
	// The stall-heavy runners exercise the batch-extended stall spans that
	// make streaming under fast-forward non-trivial; E4 adds autorun monitor
	// traffic. The full-matrix sweep stays with the in-memory suite.
	streamed := []string{"E4", "E9", "SimBench"}
	for _, rn := range obsRunners {
		var pick bool
		for _, name := range streamed {
			pick = pick || rn.name == name
		}
		if !pick {
			continue
		}
		t.Run(rn.name, func(t *testing.T) {
			sim.SetFastForwardDisabled(true)
			slowDirect, slowReplay, slowSeries := captureSpilled(t, rn.run)
			sim.SetFastForwardDisabled(false)
			fastDirect, fastReplay, fastSeries := captureSpilled(t, rn.run)
			if len(slowDirect) != len(fastDirect) {
				t.Fatalf("machine count differs: %d vs %d", len(slowDirect), len(fastDirect))
			}
			for i := range slowDirect {
				if !bytes.Equal(slowDirect[i], slowReplay[i]) {
					t.Errorf("machine %d: single-step replay differs from direct timeline:\n%s",
						i, firstDiff(slowDirect[i], slowReplay[i]))
				}
				if !bytes.Equal(fastDirect[i], fastReplay[i]) {
					t.Errorf("machine %d: fast-forward replay differs from direct timeline:\n%s",
						i, firstDiff(fastDirect[i], fastReplay[i]))
				}
				if !bytes.Equal(slowReplay[i], fastReplay[i]) {
					t.Errorf("machine %d: replayed timeline differs with fast-forward:\n%s",
						i, firstDiff(slowReplay[i], fastReplay[i]))
				}
				if !bytes.Equal(slowSeries[i], fastSeries[i]) {
					t.Errorf("machine %d: replayed series differs with fast-forward:\n%s",
						i, firstDiff(slowSeries[i], fastSeries[i]))
				}
			}
		})
	}
}
