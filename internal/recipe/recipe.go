// Package recipe is the one run recipe: a typed Spec naming everything a
// recorded run's event stream depends on, its codec to and from a spill
// manifest's Meta, and the registry of workloads it builds. oclprof, oclmon,
// the experiments harness and the scrubbers all start, resume, rewind and
// repair runs through it, so a spill written by one re-executes identically
// in any other.
//
// The durable record is a function of the Spec alone: how the run is driven
// (fast-forward, RunFor slicing) does not shape the bytes. Build stages the
// machine, Run.Execute drives it to the spec's end and seals the record on
// every outcome, and Rebuild is the scrub.Rebuild hook that turns a manifest
// back into that run.
package recipe

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"oclfpga/internal/device"
	"oclfpga/internal/fault"
	"oclfpga/internal/hls"
	"oclfpga/internal/host"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
)

// Spec is a run's full parameter set. A zero field means the workload's
// default and is left out of Meta.
type Spec struct {
	Workload string // a registered workload name; also the design's name
	N        int    // item count of a sized workload; fixed-size workloads take none
	Device   string // s5 | a10 | a10i ("" = s5)

	ChanDepthOpt bool   // the channel-depth optimization pass (§3.1 hazard)
	StallMon     bool   // attach stall monitors (matmul, fir)
	Watch        bool   // attach a smart watchpoint (matmul)
	Order        bool   // seq+timestamp execution-order capture (matvec)
	Timestamps   string // "" | cl | hdl (chase)

	Inject     string // fault plan: comma-separated fault specs
	StallLimit int64  // cycles without progress before a hang is diagnosed

	SampleEvery     int64 // metrics sampling grid (the manifest's own sampleEvery)
	CheckpointEvery int64 // rewind checkpoint grid
	CycleBudget     int64 // cycles the run may take before it is stopped (0: no budget)
}

var errNegative = errors.New("must not be negative")

// ParamError reports a run parameter the recipe cannot accept. Key is the
// parameter's Meta key.
type ParamError struct {
	Key, Value string
	Err        error
}

func (e *ParamError) Error() string { return fmt.Sprintf("recipe: %s %q: %v", e.Key, e.Value, e.Err) }

func (e *ParamError) Unwrap() error { return e.Err }

// field is one Meta parameter: its key and exactly one Spec field.
type field struct {
	key  string
	str  *string
	num  *int64
	flag *bool
}

// fields is the Meta codec's table. N is coded apart (an int that must be
// positive when present); SampleEvery lives in the manifest proper.
func (s *Spec) fields() []field {
	return []field{
		{key: "workload", str: &s.Workload}, {key: "device", str: &s.Device},
		{key: "timestamps", str: &s.Timestamps}, {key: "inject", str: &s.Inject},
		{key: "stalllimit", num: &s.StallLimit}, {key: "ckptEvery", num: &s.CheckpointEvery},
		{key: "cycle-budget", num: &s.CycleBudget},
		{key: "chandepthopt", flag: &s.ChanDepthOpt}, {key: "stallmon", flag: &s.StallMon},
		{key: "watch", flag: &s.Watch}, {key: "order", flag: &s.Order},
	}
}

// Validate checks every field without building anything.
func (s Spec) Validate() error {
	w, ok := workloads[s.Workload]
	switch {
	case !ok:
		return &ParamError{"workload", s.Workload, errors.New("unknown workload")}
	case s.N < 0:
		return &ParamError{"n", strconv.Itoa(s.N), errNegative}
	case s.SampleEvery < 0:
		return &ParamError{"sampleEvery", strconv.FormatInt(s.SampleEvery, 10), errNegative}
	case s.N > 0 && w.items == 0:
		return &ParamError{"n", strconv.Itoa(s.N), errors.New("workload has a fixed size")}
	case s.Timestamps != "" && s.Timestamps != "cl" && s.Timestamps != "hdl":
		return &ParamError{"timestamps", s.Timestamps, errors.New("want cl or hdl")}
	}
	if _, err := pickDevice(s.Device); err != nil {
		return err
	}
	if _, err := s.faultPlan(); err != nil {
		return err
	}
	for _, f := range s.fields() {
		if f.num != nil && *f.num < 0 {
			return &ParamError{f.key, strconv.FormatInt(*f.num, 10), errNegative}
		}
	}
	return nil
}

// Meta encodes the spec as a manifest's Meta, in the key names and value
// formats spills have always carried: ckptEvery and workload are always
// written, every other parameter only when set.
func (s Spec) Meta() map[string]string {
	m := map[string]string{"workload": s.Workload, "ckptEvery": strconv.FormatInt(s.CheckpointEvery, 10)}
	if s.N != 0 {
		m["n"] = strconv.Itoa(s.N)
	}
	for _, f := range s.fields() {
		switch {
		case f.str != nil && *f.str != "":
			m[f.key] = *f.str
		case f.num != nil && *f.num != 0:
			m[f.key] = strconv.FormatInt(*f.num, 10)
		case f.flag != nil && *f.flag:
			m[f.key] = "1"
		}
	}
	return m
}

// FromManifest decodes the spec a spill was recorded under. Keys it does not
// know (oclmon's tenant annotation) are ignored; a malformed value or an
// unregistered workload is a *ParamError.
func FromManifest(man *obs.Manifest) (Spec, error) { return Legacy{}.FromManifest(man) }

// Legacy fills what older spills left out of Meta: oclmon recorded no
// ckptEvery before the grid joined the spec, and those runs took the
// server's -checkpoint-every.
type Legacy struct {
	CheckpointEvery int64 // the grid of a spill whose Meta has no ckptEvery
}

// FromManifest is the package FromManifest, filling left-out parameters
// from l.
func (l Legacy) FromManifest(man *obs.Manifest) (Spec, error) {
	s := Spec{SampleEvery: man.SampleEvery, CheckpointEvery: l.CheckpointEvery}
	for _, f := range s.fields() {
		v, ok := man.Meta[f.key]
		switch {
		case !ok:
		case f.str != nil:
			*f.str = v
		case f.num != nil:
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Spec{}, &ParamError{f.key, v, err}
			}
			*f.num = n
		case v != "1":
			return Spec{}, &ParamError{f.key, v, errors.New(`want "1" or absent`)}
		default:
			*f.flag = true
		}
	}
	if v, ok := man.Meta["n"]; ok {
		n, err := strconv.Atoi(v)
		if err == nil && n <= 0 {
			err = errors.New("must be positive")
		}
		if err != nil {
			return Spec{}, &ParamError{"n", v, err}
		}
		s.N = n
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func pickDevice(name string) (*device.Device, error) {
	switch name {
	case "", "s5":
		return device.StratixV(), nil
	case "a10":
		return device.Arria10(), nil
	case "a10i":
		return device.Arria10Integrated(), nil
	}
	return nil, &ParamError{"device", name, errors.New("want s5, a10 or a10i")}
}

func (s Spec) faultPlan() (*fault.Plan, error) {
	if s.Inject == "" {
		return nil, nil
	}
	plan, err := fault.ParseSpecs(s.Inject)
	if err != nil {
		return nil, &ParamError{"inject", s.Inject, err}
	}
	return plan, nil
}

// Program is a spec's uncompiled design plus the step that stages a machine
// built from it. It is immutable once prepared, so a compiled-design memo
// may share it across runs.
type Program struct {
	Kir   *kir.Program
	stage func(*Run)
}

// Prepare validates the spec and builds its kernel program.
func Prepare(s Spec) (*Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w, sized := workloads[s.Workload], s
	if sized.N == 0 {
		sized.N = w.items
	}
	p := kir.NewProgram(s.Workload)
	stage, err := w.program(sized, p)
	if err != nil {
		return nil, err
	}
	return &Program{Kir: p, stage: stage}, nil
}

// Stage allocates and fills the buffers on m, a machine of the program's
// compiled design, starts the host controllers and launches the kernels.
// s is the run's spec: one that prepares this same program, though its run
// parameters (grids, budget) may differ from the preparing spec's.
func (p *Program) Stage(s Spec, m *sim.Machine) (*Run, error) {
	r := &Run{Spec: s, Machine: m}
	if p.stage(r); r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// SimOptions returns the simulator options the spec implies, without
// observability (Build attaches that).
func (s Spec) SimOptions() (sim.Options, error) {
	w := workloads[s.Workload]
	plan, err := s.faultPlan()
	o := sim.Options{StallLimit: s.StallLimit, Fault: plan}
	if o.StallLimit == 0 {
		o.StallLimit = w.stallLimit
	}
	if w.congested {
		o.MemConfig = mem.Config{RowHitLat: 60, RowMissLat: 200}
	}
	if s.CycleBudget > 0 {
		// The budget is the ceiling; the simulator's own 20M-cycle default
		// would otherwise fail long runs before the budget applies.
		o.MaxCycles = math.MaxInt64 / 2
	}
	return o, err
}

// Run is a staged machine at cycle 0. Buffers are reached by name through
// Machine.Buffer and the design through Machine.Design.
type Run struct {
	Spec    Spec
	Machine *sim.Machine
	Units   []*sim.Unit // in launch order
	// StallMon and Watch are the started host controllers of the spec's
	// stall monitors and watchpoint (nil when not attached).
	StallMon, Watch *host.Controller

	err error // the first staging failure
}

// Build compiles the spec's design and stages a machine. A non-nil sink
// attaches the recorder on the spec's sample and checkpoint grids and
// streams the record into it; with a nil sink the machine is unobserved,
// which changes nothing about how its state evolves.
func Build(s Spec, sink obs.Sink) (*Run, error) {
	p, err := Prepare(s)
	if err != nil {
		return nil, err
	}
	// Prepare validated the device and the fault plan, so neither fails here.
	dev, _ := pickDevice(s.Device)
	o, _ := s.SimOptions()
	d, err := hls.Compile(p.Kir, dev, hls.Options{OptimizeChannelDepths: s.ChanDepthOpt})
	if err != nil {
		return nil, err
	}
	if sink != nil {
		o.Observe = &obs.Config{SampleEvery: s.SampleEvery, CheckpointEvery: s.CheckpointEvery, Sink: sink}
	}
	return p.Stage(s, sim.New(d, o))
}

// Execute drives the run to the spec's end — completion, a diagnosed hang,
// or the cycle budget — and closes the record on every outcome, so a failed
// run's spill is sealed like a completed one's. It returns the run's own
// error (the hang or budget timeout), else the sink's.
func (r *Run) Execute() error {
	var err error
	if r.Spec.CycleBudget > 0 {
		err = r.Machine.RunFor(r.Spec.CycleBudget)
	} else {
		err = r.Machine.Run()
	}
	r.Machine.Observer() // finalizes the recorder through the sink
	if err != nil {
		return err
	}
	return r.Machine.ObserveErr()
}

// ErrDivergent marks a re-execution whose state at a recorded checkpoint is
// not the record's: it is not the recorded run.
var ErrDivergent = errors.New("divergent re-execution")

// RewindTo re-executes the run to cycle target. Given a spill's recorded
// checkpoints, it first runs to the latest one in (0, target] and verifies
// the design and state hashes there, returning that checkpoint (nil when
// none applies); the dump at target is the same either way.
func (r *Run) RewindTo(target int64, cks []obs.Checkpoint) (*obs.Checkpoint, error) {
	m := r.Machine
	var ck *obs.Checkpoint
	for i := range cks {
		if cks[i].Cycle > 0 && cks[i].Cycle <= target && (ck == nil || cks[i].Cycle > ck.Cycle) {
			ck = &cks[i]
		}
	}
	if ck != nil {
		if err := m.RunTo(ck.Cycle); err != nil {
			return nil, err
		}
		if m.DesignHash() != ck.DesignHash || m.StateHash() != ck.StateHash {
			return nil, fmt.Errorf("%w at checkpoint cycle %d: design/state hash %016x/%016x, recorded %016x/%016x (different arguments, fault plan or code?)",
				ErrDivergent, ck.Cycle, m.DesignHash(), m.StateHash(), ck.DesignHash, ck.StateHash)
		}
	}
	return ck, m.RunTo(target)
}

// Rebuild is the scrub.Rebuild hook for spills of every registered workload:
// it decodes the manifest's spec and re-executes the run into sink.
func Rebuild(man *obs.Manifest, sink obs.Sink) error { return Legacy{}.Rebuild(man, sink) }

// Rebuild is the package Rebuild, decoding the spec with l.FromManifest.
func (l Legacy) Rebuild(man *obs.Manifest, sink obs.Sink) error {
	s, err := l.FromManifest(man)
	if err != nil {
		return err
	}
	r, err := Build(s, sink)
	if err != nil {
		return err
	}
	// How the original ended (completion, hang, budget) is part of its
	// record, which the repair sink verifies byte for byte; the outcome is
	// not a rebuild failure.
	_ = r.Execute()
	return nil
}
