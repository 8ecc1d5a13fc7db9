package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"oclfpga/internal/device"
	"oclfpga/internal/kir"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
)

// obsRunners is the workload matrix for the observability equivalence suite:
// every experiment plus the stall-heavy benchmark workload.
var obsRunners = []struct {
	name string
	run  func() error
}{
	{"E1", func() error { _, err := E1TimestampOverhead(device.StratixV(), 400); return err }},
	{"E2SingleTask", func() error { _, err := E2ExecutionOrder(kir.SingleTask); return err }},
	{"E2NDRange", func() error { _, err := E2ExecutionOrder(kir.NDRange); return err }},
	// E3Table1 only compiles designs (the area table); E3Verify is its
	// simulating half, so that is what the equivalence matrix runs.
	{"E3Verify", func() error { _, err := E3Verify(8); return err }},
	{"E4", func() error { _, err := E4StallMonitor(12, 256); return err }},
	{"E5", func() error { _, err := E5Watchpoints(64); return err }},
	{"E6", func() error { _, err := E6TimestampPitfalls(); return err }},
	{"E7", func() error { _, err := E7StallFree(256); return err }},
	{"E8", func() error { _, err := E8CrossDevice(); return err }},
	{"E9", func() error { _, err := E9ChannelStall(256); return err }},
	{"SimBench", func() error { _, err := RunSimBench(512, false); return err }},
}

// captureObserved runs fn with the recorder injected into every machine it
// creates and returns, per machine, the serialized timeline and the
// serialized metrics series.
func captureObserved(t *testing.T, fn func() error) (timelines, series [][]byte) {
	t.Helper()
	EnableObserveForTest(128)
	err := fn()
	ms := DisableObserveForTest()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("runner created no machines through newSim")
	}
	for _, m := range ms {
		var bt bytes.Buffer
		if err := obs.WriteTimeline(&bt, m.Timeline()); err != nil {
			t.Fatal(err)
		}
		timelines = append(timelines, bt.Bytes())
		var bs bytes.Buffer
		if err := obs.WriteSeries(&bs, m.Series()); err != nil {
			t.Fatal(err)
		}
		series = append(series, bs.Bytes())
	}
	return timelines, series
}

// TestObserveFastForwardEquivalence is the acceptance gate for the
// observability layer: with a recorder injected into every machine each
// experiment creates, the serialized event timeline and metrics series must
// be byte-identical whether the simulator single-steps every cycle or takes
// event-driven fast-forward jumps.
func TestObserveFastForwardEquivalence(t *testing.T) {
	defer sim.SetFastForwardDisabled(false)
	for _, rn := range obsRunners {
		t.Run(rn.name, func(t *testing.T) {
			sim.SetFastForwardDisabled(true)
			slowTL, slowS := captureObserved(t, rn.run)
			sim.SetFastForwardDisabled(false)
			fastTL, fastS := captureObserved(t, rn.run)
			if len(slowTL) != len(fastTL) {
				t.Fatalf("machine count differs: %d vs %d", len(slowTL), len(fastTL))
			}
			for i := range slowTL {
				if !bytes.Equal(slowTL[i], fastTL[i]) {
					t.Errorf("machine %d timeline differs with fast-forward:\n%s",
						i, firstDiff(slowTL[i], fastTL[i]))
				}
				if !bytes.Equal(slowS[i], fastS[i]) {
					t.Errorf("machine %d metrics series differs with fast-forward:\n%s",
						i, firstDiff(slowS[i], fastS[i]))
				}
			}
		})
	}
}

// TestObserveDoesNotDisableFastForward pins the recorder's core design
// property: unlike cycle hooks (VCD), observing is event-driven, so the
// fast path must still engage — and sampling must stay cycle-exact, with
// one sample per multiple of the interval plus the terminal sample.
func TestObserveDoesNotDisableFastForward(t *testing.T) {
	res, err := RunSimBenchObserved(512, 128)
	if err != nil {
		t.Fatal(err)
	}
	if res.FFJumps == 0 || res.FFSkipped == 0 {
		t.Fatal("observability disabled fast-forward on the stall-heavy workload")
	}
	if res.ObsEvents == 0 {
		t.Fatal("no events recorded")
	}
	wantSamples := int(res.Cycles / 128)
	if res.Cycles%128 != 0 {
		wantSamples++ // terminal sample at the non-aligned final cycle
	}
	if res.ObsSamples != wantSamples {
		t.Fatalf("got %d samples over %d cycles at interval 128, want %d",
			res.ObsSamples, res.Cycles, wantSamples)
	}
}

// firstDiff renders the first divergent region of two byte slices.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+120, i+120
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("at byte %d:\n--- every cycle\n…%s…\n--- fast-forward\n…%s…",
				i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d", len(a), len(b))
}
