package recipe

import (
	"errors"
	"reflect"
	"strconv"
	"testing"

	"oclfpga/internal/obs"
)

// TestMetaFormat pins the Meta each writer puts on disk: the key names and
// value formats spills already carry, so every existing spill keeps
// decoding and every new one reads like the old ones.
func TestMetaFormat(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want map[string]string
	}{
		{"oclprof", Spec{Workload: "chanstall", Device: "s5", Inject: "freeze-read:pipe@500", StallLimit: 900, CheckpointEvery: 1000},
			map[string]string{"workload": "chanstall", "device": "s5", "ckptEvery": "1000", "inject": "freeze-read:pipe@500", "stalllimit": "900"}},
		{"oclprof-flags", Spec{Workload: "matmul", Device: "a10", ChanDepthOpt: true, StallMon: true, Watch: true},
			map[string]string{"workload": "matmul", "device": "a10", "ckptEvery": "0", "chandepthopt": "1", "stallmon": "1", "watch": "1"}},
		{"oclprof-order", Spec{Workload: "matvec-nd", Device: "s5", Order: true},
			map[string]string{"workload": "matvec-nd", "device": "s5", "ckptEvery": "0", "order": "1"}},
		{"oclprof-timestamps", Spec{Workload: "chase", Device: "s5", Timestamps: "hdl"},
			map[string]string{"workload": "chase", "device": "s5", "ckptEvery": "0", "timestamps": "hdl"}},
		{"simbench", Spec{Workload: "simbench", N: 256, SampleEvery: 128, CheckpointEvery: 2048},
			map[string]string{"workload": "simbench", "n": "256", "ckptEvery": "2048"}},
		{"oclmon", Spec{Workload: "oclmon", N: 512, SampleEvery: 200, CheckpointEvery: 1000, CycleBudget: 50_000_000},
			map[string]string{"workload": "oclmon", "n": "512", "ckptEvery": "1000", "cycle-budget": "50000000"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.spec.Meta()
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Meta() = %v, want %v", got, tc.want)
			}
			back, err := FromManifest(&obs.Manifest{SampleEvery: tc.spec.SampleEvery, Meta: got})
			if err != nil || back != tc.spec {
				t.Fatalf("FromManifest(Meta()) = %+v, %v; want %+v", back, err, tc.spec)
			}
		})
	}
}

// TestFromManifestRejects: every malformed parameter is a typed ParamError
// naming its key, never a default silently substituted.
func TestFromManifestRejects(t *testing.T) {
	for _, tc := range []struct {
		meta map[string]string
		key  string
	}{
		{map[string]string{}, "workload"},
		{map[string]string{"workload": "mystery"}, "workload"},
		{map[string]string{"workload": "simbench", "n": "x"}, "n"},
		{map[string]string{"workload": "simbench", "n": "0"}, "n"},
		{map[string]string{"workload": "simbench", "n": "-4"}, "n"},
		{map[string]string{"workload": "chase", "n": "4"}, "n"},
		{map[string]string{"workload": "simbench", "ckptEvery": "1e3"}, "ckptEvery"},
		{map[string]string{"workload": "oclmon", "cycle-budget": "99999999999999999999"}, "cycle-budget"},
		{map[string]string{"workload": "chanstall", "stalllimit": "-1"}, "stalllimit"},
		{map[string]string{"workload": "matmul", "stallmon": "true"}, "stallmon"},
		{map[string]string{"workload": "matmul", "device": "s10"}, "device"},
		{map[string]string{"workload": "chase", "timestamps": "none"}, "timestamps"},
		{map[string]string{"workload": "chanstall", "inject": "melt:pipe@5"}, "inject"},
	} {
		_, err := FromManifest(&obs.Manifest{Meta: tc.meta})
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Key != tc.key {
			t.Errorf("FromManifest(%v) = %v, want a ParamError on %q", tc.meta, err, tc.key)
		}
	}
}

// TestTableStreamNamedByWorkload: simbench and oclmon share one builder;
// each design carries its own workload's name, and the sized default
// applies when the spec leaves n out.
func TestTableStreamNamedByWorkload(t *testing.T) {
	for _, w := range []string{"simbench", "oclmon"} {
		r, err := Build(Spec{Workload: w, N: 8}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Machine.Design().Program.Name; got != w {
			t.Errorf("%s design named %q", w, got)
		}
		if len(r.Units) != 2 || len(r.Machine.Buffer("dst").Data) != 8 {
			t.Errorf("%s staged %d units, dst of %d", w, len(r.Units), len(r.Machine.Buffer("dst").Data))
		}
	}
	r, err := Build(Spec{Workload: "simbench"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.N != 0 || len(r.Machine.Buffer("dst").Data) != 2048 {
		t.Fatalf("default n: spec n %d, dst of %d", r.Spec.N, len(r.Machine.Buffer("dst").Data))
	}
}

// FuzzRecipeMeta holds the Meta codec to its contract on arbitrary
// manifests: it never panics, every rejection is a typed ParamError, and an
// accepted Meta decodes to a spec that round-trips canonically.
func FuzzRecipeMeta(f *testing.F) {
	f.Add("chanstall", "", "s5", "freeze-read:pipe@500", "", "2000", "1000", "", "", int64(200))
	f.Add("matmul", "", "a10", "", "", "", "0", "", "1", int64(1000))
	f.Add("chase", "", "", "", "hdl", "", "0", "", "", int64(0))
	f.Add("simbench", "256", "", "", "", "", "2048", "", "", int64(128))
	f.Add("oclmon", "512", "", "", "", "", "", "50000000", "", int64(1000))
	f.Add("oclmon", "-1", "", "", "", "x", "1.5", "", "yes", int64(1))
	f.Fuzz(func(t *testing.T, workload, n, device, inject, timestamps, stalllimit, ckpt, budget, flag string, sampleEvery int64) {
		if sampleEvery < 0 {
			return // ParseManifest rejects a negative sampleEvery before any codec sees it
		}
		meta := map[string]string{"workload": workload, "tenant": "fuzz"}
		for key, v := range map[string]string{
			"n": n, "device": device, "inject": inject, "timestamps": timestamps,
			"stalllimit": stalllimit, "ckptEvery": ckpt, "cycle-budget": budget,
			"chandepthopt": flag, "stallmon": flag, "watch": flag, "order": flag,
		} {
			if v != "" {
				meta[key] = v
			}
		}
		s, err := FromManifest(&obs.Manifest{SampleEvery: sampleEvery, Meta: meta})
		if err != nil {
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("untyped rejection %T: %v", err, err)
			}
			return
		}
		back, err := FromManifest(&obs.Manifest{SampleEvery: s.SampleEvery, Meta: s.Meta()})
		if err != nil {
			t.Fatalf("re-decoding %v: %v", s.Meta(), err)
		}
		if back != s {
			t.Fatalf("round trip %+v -> %+v", s, back)
		}
		if n != "" {
			if _, err := strconv.Atoi(n); err != nil {
				t.Fatalf("accepted malformed n %q", n)
			}
		}
	})
}
