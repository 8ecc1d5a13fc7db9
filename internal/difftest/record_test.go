package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"oclfpga/internal/device"
	"oclfpga/internal/fault"
	"oclfpga/internal/hls"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
)

// TestRecordedStreamStrategyInvariance is the durable record's determinism
// oracle: for a random stream program under a random fault plan, with a
// sample grid and a checkpoint grid attached, the recorded NDJSON stream is a
// function of the run spec alone. It must be byte-identical whether the
// simulator steps every cycle or fast-forwards, whether the run is driven by
// one Run or by a seed-derived schedule of RunFor slices (slice-1 steps and
// doubling runs, the shape of the supervisor's drive loop), and whether the
// recorder feeds one sink or a fan-out. Resume, scrub and rewind re-execute
// with fast-forward on and one unsliced drive, whatever the original run
// used; this is what makes that sound.
func TestRecordedStreamStrategyInvariance(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 24
	}
	spec := fault.CampaignSpec{
		Channels:   []string{"pipe"},
		Kernels:    []string{"producer", "fuzz"},
		AllowFatal: true,
		Horizon:    400,
	}
	var jumps, hangs int64
	for seed := int64(900); seed < 900+seeds; seed++ {
		c := GenerateStream(seed, GenConfig{})
		d, err := hls.Compile(c.Program, device.StratixV(), hls.Options{})
		if err != nil {
			t.Fatalf("seed %d: hls: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		g := strategyRun{
			c: c, d: d, plan: fault.NewRandomPlan(seed, spec),
			sampleEvery: 16 + rng.Int63n(300),
			ckptEvery:   64 + rng.Int63n(1000),
		}
		slice0 := []int64{1, 5, 33}[rng.Intn(3)]
		schedSeed := rng.Int63()

		ref := g.record(t, true, nil, false)
		for _, arm := range []struct {
			name  string
			drive func(*sim.Machine) error
			fan   bool
		}{
			{"ff-on Run", nil, false},
			{"ff-on RunFor schedule", slicedDrive(slice0, schedSeed), false},
			{"ff-on fan-out", nil, true},
		} {
			got := g.record(t, false, arm.drive, arm.fan)
			if got.stream != ref.stream {
				t.Fatalf("seed %d: %s stream differs from ff-off Run:\n%s",
					seed, arm.name, firstLineDiff(ref.stream, got.stream))
			}
			if got.end != ref.end || got.hung != ref.hung {
				t.Fatalf("seed %d: %s ended at %d (hung %v), ff-off Run at %d (hung %v)",
					seed, arm.name, got.end, got.hung, ref.end, ref.hung)
			}
			jumps += got.jumps
		}
		if ref.hung {
			hangs++
		}
	}
	if jumps == 0 || hangs == 0 {
		t.Fatalf("oracle is vacuous: %d fast-forward jumps, %d diagnosed hangs", jumps, hangs)
	}
}

// strategyRun is one run spec: a stream case, its fault plan and the two
// observation grids.
type strategyRun struct {
	c                      *Case
	d                      *hls.Design
	plan                   *fault.Plan
	sampleEvery, ckptEvery int64
}

// recorded is what one strategy produced.
type recorded struct {
	stream string
	end    int64
	hung   bool
	jumps  int64
}

// record executes the spec under one strategy: fast-forward off or on, drive
// nil for one Run (else the given drive loop), and fan to tee the recorder
// into a second sink beside the NDJSON spill.
func (g strategyRun) record(t *testing.T, disableFF bool, drive func(*sim.Machine) error, fan bool) recorded {
	t.Helper()
	var buf strings.Builder
	var sink obs.Sink = obs.NewNDJSONSink(&buf, g.d.Program.Name, g.sampleEvery)
	if fan {
		sink = obs.NewFanout(sink, obs.NewRecorder(g.d.Program.Name, obs.Config{}))
	}
	m := sim.New(g.d, sim.Options{
		Fault: g.plan, StallLimit: 4500, DisableFastForward: disableFF,
		Observe: &obs.Config{SampleEvery: g.sampleEvery, CheckpointEvery: g.ckptEvery, Sink: sink},
	})
	ba, bb, bo, err := newBufs(m)
	if err != nil {
		t.Fatal(err)
	}
	copy(ba.Data, g.c.In1)
	copy(bb.Data, g.c.In2)
	if _, err := m.Launch("producer", sim.Args{"a": ba, "n": g.c.Global}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Launch("fuzz", sim.Args{"b": bb, "out": bo, "n": g.c.Global}); err != nil {
		t.Fatal(err)
	}
	if drive == nil {
		drive = (*sim.Machine).Run
	}
	runErr := drive(m)
	var de *sim.DeadlockError
	if runErr != nil && !errors.As(runErr, &de) {
		t.Fatalf("machine error: %v", runErr)
	}
	m.Timeline() // finalizes the recorder through the sink
	if err := m.ObserveErr(); err != nil {
		t.Fatal(err)
	}
	return recorded{stream: buf.String(), end: m.Cycle(), hung: runErr != nil, jumps: m.FastForwardStats().Jumps}
}

// slicedDrive returns a drive loop of RunFor slices starting at slice0: each
// uneventful slice doubles the next, and a seed-derived quarter of them drops
// back to a single cycle. A diagnosed hang ends the run; a slice timeout does
// not.
func slicedDrive(slice0, seed int64) func(*sim.Machine) error {
	return func(m *sim.Machine) error {
		rng := rand.New(rand.NewSource(seed))
		slice := slice0
		for {
			err := m.RunFor(slice)
			var de *sim.DeadlockError
			if err == nil || !errors.As(err, &de) || !de.Timeout() {
				return err
			}
			if slice *= 2; rng.Intn(4) == 0 || slice > 4096 {
				slice = 1
			}
		}
	}
}

// firstLineDiff locates the first differing line of two NDJSON streams.
func firstLineDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(la), len(lb))
}
