package experiments

import (
	"fmt"
	"strconv"
	"sync"

	"oclfpga/internal/device"
	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
)

// The simulator-throughput benchmark workload: a fast producer feeding a slow
// consumer through a shallow channel, deliberately shaped to be stall-heavy —
// the regime the fast-forward path targets:
//
//   - the consumer's table loads stride by a prime larger than a DRAM row, so
//     nearly every access pays the row-activate latency (52 cycles) against a
//     scheduled latency of 7 — each iteration stalls the pipeline for tens of
//     cycles, and a second load addressed by the first's result serializes two
//     such windows back to back;
//   - the throttled consumer backs the depth-4 pipe up, so the producer
//     blocks on channel writes.
//
// Most cycles therefore have no unit able to make progress, and a cycle
// simulator that only steps can do nothing but spin through them. The design
// is uninstrumented on purpose: autorun monitor kernels poll every cycle and
// would keep the machine permanently busy, hiding the quiescent windows this
// benchmark exists to measure.

// simBenchTblElems is the lookup-table size (power of two for mask indexing):
// 1<<14 i32 elements = 16 DRAM rows at the default 4096-byte row buffer.
const (
	simBenchTblElems   = 1 << 14
	simBenchTblStride  = 1031 // prime > one row of i32 elements: every load a row miss
	simBenchTblStride2 = 523  // second, dependent stride — a second miss per item
)

// SimBenchResult is one simulated run of the benchmark workload.
type SimBenchResult struct {
	N          int   // items streamed producer -> consumer
	Cycles     int64 // final machine cycle
	FFJumps    int64 // fast-forward jumps taken
	FFSkipped  int64 // cycles elided by those jumps
	ObsEvents  int   // timeline events recorded (observed runs only)
	ObsSamples int   // metrics samples recorded (observed runs only)
}

func buildSimBench(n int) *kir.Program {
	p := kir.NewProgram("simbench")
	pipe := p.AddChan("pipe", 4, kir.I32)

	prod := p.AddKernel("producer", kir.SingleTask)
	src := prod.AddGlobal("src", kir.I32)
	pb := prod.NewBuilder()
	pb.ForN("i", int64(n), nil, func(lb *kir.Builder, i kir.Val, _ []kir.Val) []kir.Val {
		lb.ChanWrite(pipe, lb.Load(src, i))
		return nil
	})

	cons := p.AddKernel("consumer", kir.SingleTask)
	tbl := cons.AddGlobal("tbl", kir.I32)
	dst := cons.AddGlobal("dst", kir.I32)
	cb := cons.NewBuilder()
	// The carried value feeds the next iteration's load address, so the two
	// row-miss latencies serialize across iterations instead of overlapping
	// in the pipeline — the loop's true II is the memory round-trip.
	cb.ForN("i", int64(n), []kir.Val{cb.Ci32(0)}, func(lb *kir.Builder, i kir.Val, c []kir.Val) []kir.Val {
		v := lb.ChanRead(pipe)
		w := lb.Load(tbl, lb.And(lb.Add(c[0], lb.Mul(i, lb.Ci32(simBenchTblStride))), lb.Ci32(simBenchTblElems-1)))
		w2 := lb.Load(tbl, lb.And(lb.Mul(lb.Add(w, i), lb.Ci32(simBenchTblStride2)), lb.Ci32(simBenchTblElems-1)))
		lb.Store(dst, i, lb.Div(lb.Add(v, w2), lb.Ci32(2)))
		return []kir.Val{w2}
	})
	return p
}

// simBenchExpected mirrors the consumer in plain Go (all values are small and
// positive, so 32-bit truncation and division round-toward-zero never bite).
func simBenchExpected(n int) []int64 {
	out := make([]int64, n)
	c := int64(0)
	for i := 0; i < n; i++ {
		v := int64(i + 1)
		w := ((c + int64(i)*simBenchTblStride) & (simBenchTblElems - 1)) % 97
		w2 := (((w + int64(i)) * simBenchTblStride2) & (simBenchTblElems - 1)) % 97
		out[i] = (v + w2) / 2
		c = w2
	}
	return out
}

// CompileSimBench compiles the benchmark workload bypassing the design memo —
// the benchmark's compile-phase measurement, kept separate so the simulate
// phases measure pure machine stepping.
func CompileSimBench(n int) (*hls.Design, error) {
	if n == 0 {
		n = 2048
	}
	return hls.Compile(buildSimBench(n), device.StratixV(), hls.Options{})
}

// RunSimBench compiles (memoized) and simulates the benchmark workload,
// validating the consumer's output — the equivalence suite runs it with
// fast-forward on and off and compares every field of the result.
func RunSimBench(n int, disableFF bool) (*SimBenchResult, error) {
	return runSimBench(n, disableFF, nil)
}

// RunSimBenchObserved runs the benchmark workload with the observability
// recorder attached (sampling every sampleEvery cycles) — the workload the
// recorder-overhead benchmark measures against the plain fast path.
func RunSimBenchObserved(n int, sampleEvery int64) (*SimBenchResult, error) {
	return runSimBench(n, false, &obs.Config{SampleEvery: sampleEvery})
}

// RunSimBenchCheckpointed is the checkpoint-overhead benchmark's treatment
// arm: the observed workload with a rewind checkpoint (design and state hashes)
// recorded every ckptEvery cycles. Compared against RunSimBenchObserved to
// price the checkpoint grid — the extra fast-forward splits plus the hash.
func RunSimBenchCheckpointed(n int, sampleEvery, ckptEvery int64) (*SimBenchResult, error) {
	return runSimBench(n, false, &obs.Config{SampleEvery: sampleEvery, CheckpointEvery: ckptEvery})
}

// SpillSimBench runs the benchmark workload with a checkpointed, segmented
// spill under dir and finalizes it — the fixture builder for the indexed
// query engine's benchmarks and for CLI round-trip tests. The manifest's Meta
// records every parameter the recorded stream depends on, so a scrubber
// holding nothing but the spill can rebuild the identical run
// (SimBenchRebuild).
func SpillSimBench(n int, dir string, sampleEvery, ckptEvery int64, segLines int) (*SimBenchResult, error) {
	if n == 0 {
		n = 2048
	}
	seg, err := obs.NewSegmentSink(obs.SegmentConfig{
		Dir: dir, Design: "simbench", SampleEvery: sampleEvery, MaxLines: segLines,
		Meta: map[string]string{
			"workload":  "simbench",
			"n":         fmt.Sprint(n),
			"ckptEvery": fmt.Sprint(ckptEvery),
		},
	})
	if err != nil {
		return nil, err
	}
	m, dst, err := setupSimBench(n, false, &obs.Config{
		SampleEvery: sampleEvery, CheckpointEvery: ckptEvery, Sink: seg,
	})
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	m.Observer() // closes the record; the recorder finalizes the spill
	if err := m.ObserveErr(); err != nil {
		return nil, err
	}
	return finishSimBench(m, dst, n)
}

// SimBenchRebuild is the scrub rebuild hook for spills SpillSimBench wrote:
// it turns the manifest's Meta back into the identical deterministic run and
// streams it into sink — the re-execution primitive behind both resume-based
// crash recovery and scrub's byte-identical segment repair. Refuses manifests
// recorded by any other workload — repairing against the wrong program would
// only trip the fingerprint check later, with a confusing verdict.
func SimBenchRebuild(man *obs.Manifest, sink obs.Sink) error {
	if man.Meta["workload"] != "simbench" {
		return fmt.Errorf("simbench: cannot rebuild workload %q", man.Meta["workload"])
	}
	n, err := strconv.Atoi(man.Meta["n"])
	if err != nil {
		return fmt.Errorf("simbench: manifest meta n: %w", err)
	}
	ckpt, err := strconv.ParseInt(man.Meta["ckptEvery"], 10, 64)
	if err != nil {
		return fmt.Errorf("simbench: manifest meta ckptEvery: %w", err)
	}
	m, dst, err := setupSimBench(n, false, &obs.Config{
		SampleEvery: man.SampleEvery, CheckpointEvery: ckpt, Sink: sink,
	})
	if err != nil {
		return err
	}
	if err := m.Run(); err != nil {
		return err
	}
	m.Observer() // closes the record; the recorder finalizes the sink
	if err := m.ObserveErr(); err != nil {
		return err
	}
	_, err = finishSimBench(m, dst, n)
	return err
}

func runSimBench(n int, disableFF bool, observe *obs.Config) (*SimBenchResult, error) {
	if n == 0 {
		n = 2048
	}
	m, dst, err := setupSimBench(n, disableFF, observe)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	res, err := finishSimBench(m, dst, n)
	if err == nil && observe != nil && !obsHookArmed() {
		// Steady-state observed mode: counts are harvested, nothing else will
		// read this run's record, so hand its flat storage back to the pools
		// for the next run — the benchmark prices recording plus recycling,
		// exactly the leave-it-on loop a long-lived monitor runs. Skipped when
		// the test hook is armed because the equivalence suite inspects the
		// collected machines afterwards.
		m.ReleaseObserver()
	}
	return res, err
}

// benchSupervisor is the long-lived supervisor behind RunSimBenchSupervised,
// mirroring a real deployment (oclmon keeps one for the process lifetime):
// the overhead benchmark prices supervising a run, not constructing the
// supervisor and its worker pool every time.
var (
	benchSupervisor     *supervise.Supervisor
	benchSupervisorOnce sync.Once
)

// RunSimBenchSupervised runs the same workload, same validation, but drives
// the machine through internal/supervise — sliced RunFor calls under a cycle
// budget and wall-clock watchdog instead of one uninterrupted Run. The
// supervise-overhead benchmark compares it against RunSimBench to price the
// supervision layer (budget accounting + watchdog checks per slice).
func RunSimBenchSupervised(n int) (*SimBenchResult, error) {
	if n == 0 {
		n = 2048
	}
	var (
		m   *sim.Machine
		dst *mem.Buffer
	)
	benchSupervisorOnce.Do(func() {
		benchSupervisor = supervise.New(supervise.Config{Slots: 1})
	})
	sup := benchSupervisor
	done := make(chan supervise.Outcome, 1)
	err := sup.Submit(supervise.Spec{
		ID: "simbench", Workload: "simbench",
		Start: func() (*sim.Machine, error) {
			var err error
			m, dst, err = setupSimBench(n, false, nil)
			return m, err
		},
		Done: func(_ *sim.Machine, out supervise.Outcome) { done <- out },
	})
	if err != nil {
		return nil, err
	}
	out := <-done
	if out.State != supervise.StateCompleted {
		return nil, fmt.Errorf("simbench: supervised run %s: %w", out.State, out.Err)
	}
	return finishSimBench(m, dst, n)
}

// setupSimBench compiles (memoized) the benchmark workload and stages a
// machine ready to run: congested DRAM, buffers filled, kernels launched.
func setupSimBench(n int, disableFF bool, observe *obs.Config) (*sim.Machine, *mem.Buffer, error) {
	d, _, err := compiledDesign(fmt.Sprintf("simbench/%d", n), device.StratixV(), hls.Options{},
		func() (*kir.Program, any, error) { return buildSimBench(n), nil, nil })
	if err != nil {
		return nil, nil, err
	}
	// A congested-DRAM profile: the scheduled load latency stays at the
	// compiler's optimistic estimate while the modeled row activate takes
	// ~200 cycles, so each consumer load opens a long quiescent window — the
	// shape of the §5.1 "memory behaves differently than the compiler
	// assumed" stalls the profiling stack exists to expose.
	m := newSim(d, sim.Options{
		DisableFastForward: disableFF,
		MemConfig:          mem.Config{RowHitLat: 60, RowMissLat: 200},
		Observe:            observe,
	})
	src, err := m.NewBuffer("src", kir.I32, n)
	if err != nil {
		return nil, nil, err
	}
	tbl, err := m.NewBuffer("tbl", kir.I32, simBenchTblElems)
	if err != nil {
		return nil, nil, err
	}
	dst, err := m.NewBuffer("dst", kir.I32, n)
	if err != nil {
		return nil, nil, err
	}
	for i := range src.Data {
		src.Data[i] = int64(i + 1)
	}
	for i := range tbl.Data {
		tbl.Data[i] = int64(i % 97)
	}
	if _, err := m.Launch("producer", sim.Args{"src": src}); err != nil {
		return nil, nil, err
	}
	if _, err := m.Launch("consumer", sim.Args{"tbl": tbl, "dst": dst}); err != nil {
		return nil, nil, err
	}
	return m, dst, nil
}

// finishSimBench validates the consumer's output and packages the result.
func finishSimBench(m *sim.Machine, dst *mem.Buffer, n int) (*SimBenchResult, error) {
	want := simBenchExpected(n)
	for i := 0; i < n; i++ {
		if dst.Data[i] != want[i] {
			return nil, fmt.Errorf("simbench: dst[%d] = %d, want %d", i, dst.Data[i], want[i])
		}
	}
	ff := m.FastForwardStats()
	res := &SimBenchResult{N: n, Cycles: m.Cycle(), FFJumps: ff.Jumps, FFSkipped: ff.Skipped}
	if m.Observed() {
		// The flat read path: event/sample counts come straight off the
		// recorder, so finishing an observed run does not materialize the
		// full Event timeline (that conversion happens only when a consumer
		// actually asks for Timeline()).
		rec := m.Observer()
		res.ObsEvents = rec.EventCount()
		res.ObsSamples = rec.SampleCount()
	}
	return res, nil
}
