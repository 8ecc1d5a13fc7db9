package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	serveRefIfHelper()
	os.Exit(m.Run())
}

// describe renders the first n ops of a client's sequence, one per line.
func describe(workload string, seed int64, client, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, opAt(workload, seed, client, i))
	}
	return b.String()
}

// shortRun runs the first ops ops of a workload's sequence and returns the
// simulated-statistics digest.
func shortRun(t *testing.T, cfg config) string {
	t.Helper()
	cfg.work = t.TempDir()
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", cfg.workload, res.failed, res.attempted, res.errs)
	}
	sum, n := res.digest.sum()
	if n == 0 {
		t.Fatalf("%s: empty digest", cfg.workload)
	}
	return sum
}

func TestSameSeedSameSequenceAndDigest(t *testing.T) {
	for _, w := range []string{"spill-write", "paper-kernels"} {
		t.Run(w, func(t *testing.T) {
			cfg := config{workload: w, seed: 7, maxOps: 4}
			if a, b := describe(w, 7, 0, 32), describe(w, 7, 0, 32); a != b {
				t.Fatalf("sequence differs between calls:\n%s\n%s", a, b)
			}
			if a, b := shortRun(t, cfg), shortRun(t, cfg); a != b {
				t.Fatalf("same seed, digests %s and %s", a, b)
			}
		})
	}
}

func TestSeedChangesMix(t *testing.T) {
	for _, w := range []string{"spill-write", "paper-kernels", "service-mix"} {
		if describe(w, 1, 0, 8) == describe(w, 2, 0, 8) {
			t.Errorf("%s: seeds 1 and 2 give the same first 8 ops", w)
		}
	}
	a := shortRun(t, config{workload: "spill-write", seed: 1, maxOps: 2})
	b := shortRun(t, config{workload: "spill-write", seed: 2, maxOps: 2})
	if a == b {
		t.Errorf("spill-write: seeds 1 and 2 give the same digest %s", a)
	}
}

// TestLevelsSpreadEvenly checks the stratification every workload relies on
// for seed-independent mixes: any run of `levels` consecutive blocks visits
// each level exactly once.
func TestLevelsSpreadEvenly(t *testing.T) {
	const levels = 9
	for seed := int64(1); seed <= 3; seed++ {
		for start := 0; start < 4*levels; start += levels {
			seen := map[int]bool{}
			for b := start; b < start+levels; b++ {
				seen[level("s", seed, 0, b, levels)] = true
			}
			if len(seen) != levels {
				t.Errorf("seed %d blocks %d..%d: %d distinct levels, want %d", seed, start, start+levels-1, len(seen), levels)
			}
		}
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "op.x", Start: 0, End: 10 * time.Millisecond, Parent: -1},
		{Name: "sim.run", Start: time.Millisecond, End: 7 * time.Millisecond, Parent: 0,
			Sink: sinkUse{Busy: 2 * time.Millisecond, Calls: 5}},
		{Name: "hls.compile", Start: 7 * time.Millisecond, End: 8 * time.Millisecond, Parent: 0},
	}
	want := map[string]time.Duration{
		"op.x":        3 * time.Millisecond, // 10 - 6 - 1
		"sim.run":     4 * time.Millisecond, // 6 - 2 in the sink
		"hls.compile": time.Millisecond,
		"obs.sink":    2 * time.Millisecond,
	}
	for _, st := range tr.layerTable() {
		if st.Self != want[st.Name] {
			t.Errorf("%s: self %v, want %v", st.Name, st.Self, want[st.Name])
		}
		if st.Name == "obs.sink" && st.Calls != 5 {
			t.Errorf("obs.sink: %d calls, want 5", st.Calls)
		}
	}
}

func TestInRefUnits(t *testing.T) {
	// The host halves its speed after op 10; the reference follows it, and
	// one reference timing (op 3) is hit by noise that the window drops.
	var opMs, ref []float64
	for i := 0; i < 20; i++ {
		speed := 1.0
		if i >= 10 {
			speed = 2
		}
		opMs = append(opMs, 50*speed)
		ref = append(ref, 2*speed)
	}
	ref[3] = 9
	got := inRefUnits(opMs, ref)
	for i, u := range got {
		if i >= 10-refWindow/2 && i < 10+refWindow/2 {
			continue // the window straddles the change
		}
		if u != 25 {
			t.Errorf("op %d: %g ref, want 25", i, u)
		}
	}
}

// TestServiceMixSameSeedSameDigest drives a real oclmon built from this
// repository through two short service-mix runs.
func TestServiceMixSameSeedSameDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots oclmon")
	}
	bin := filepath.Join(t.TempDir(), "oclmon")
	if out, err := exec.Command("go", "build", "-o", bin, "../cmd/oclmon").CombinedOutput(); err != nil {
		t.Fatalf("build oclmon: %v\n%s", err, out)
	}
	cfg := config{workload: "service-mix", seed: 3, maxOps: 2, oclmon: bin}
	if a, b := shortRun(t, cfg), shortRun(t, cfg); a != b {
		t.Fatalf("same seed, digests %s and %s", a, b)
	}
}
