package experiments

import (
	"fmt"
	"sync"

	"oclfpga/internal/device"
	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
	"oclfpga/internal/recipe"
	"oclfpga/internal/sim"
)

// The experiments are re-run constantly — by the CLI, the test suite, and the
// benchmarks (which call each experiment hundreds of times per run). Compiling
// the same program for the same device with the same options always yields an
// equivalent Design, and a Design is read-only during simulation (all mutable
// state lives in the Machine), so compiled designs are memoized process-wide.
//
// The memo key is program identity + device name + compile options. Program
// identity here is the experiment-chosen program name plus whatever
// configuration the builder closure bakes in; callers must fold every
// build-varying parameter (size, mode, instrumentation flags, ...) into the
// key they pass.

type memoEntry struct {
	once sync.Once
	d    *hls.Design
	aux  any
	err  error
}

var designMemo sync.Map

// compiledDesign returns the design for the given key, building and compiling
// it at most once per process. The build closure constructs the program and
// returns an experiment-specific payload (workload handles, host interfaces)
// that is memoized alongside the design; payloads must therefore be immutable
// after build, like the design itself.
func compiledDesign(key string, dev *device.Device, opts hls.Options,
	build func() (*kir.Program, any, error)) (*hls.Design, any, error) {

	full := fmt.Sprintf("%s|%s|%+v", key, dev.Name, opts)
	v, _ := designMemo.LoadOrStore(full, &memoEntry{})
	e := v.(*memoEntry)
	e.once.Do(func() {
		p, aux, err := build()
		if err != nil {
			e.err = err
			return
		}
		e.aux = aux
		e.d, e.err = hls.Compile(p, dev, opts)
	})
	return e.d, e.aux, e.err
}

// stageRecipe stages a run of spec (a Stratix V, default-option spec)
// through the design memo, under key, and the experiments' machine
// constructor; adjust, when set, edits the spec's simulator options first.
func stageRecipe(key string, spec recipe.Spec, adjust func(*sim.Options)) (*recipe.Run, error) {
	d, aux, err := compiledDesign(key, device.StratixV(), hls.Options{}, func() (*kir.Program, any, error) {
		p, err := recipe.Prepare(spec)
		if err != nil {
			return nil, nil, err
		}
		return p.Kir, p, nil
	})
	if err != nil {
		return nil, err
	}
	o, err := spec.SimOptions()
	if err != nil {
		return nil, err
	}
	if adjust != nil {
		adjust(&o)
	}
	return aux.(*recipe.Program).Stage(spec, newSim(d, o))
}
