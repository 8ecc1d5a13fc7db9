package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Periodic lightweight checkpoints (DESIGN.md §14). A checkpoint is an
// ordinary instant event in the recorded stream — kind "checkpoint" on the
// "sim:checkpoint" track — whose detail string carries everything a later
// process needs to rewind to that cycle by re-execution: the design hash and
// fault seed (to assert it is rebuilding the same deterministic run) and the
// machine state hash (to verify the re-executed state byte-matches before
// continuing).
//
// Because a checkpoint is just an event, it flows through every existing
// transport unchanged: NDJSON spills, crash-safe segments, replay recovery,
// and the flat binary codec (kinds are interned strings, so no codec change
// was needed). The detail carries nothing about how the run was simulated:
// the state hash covers only fast-forward-invariant machine state, so a
// checkpoint is the same bytes with skipping on or off and verifies a
// re-execution in either mode.

// KindCheckpoint marks a periodic rewind checkpoint (instant; Detail carries
// the parsed Checkpoint fields).
const KindCheckpoint = "checkpoint"

// CheckpointTrack is the timeline track checkpoint instants land on.
const CheckpointTrack = "sim:checkpoint"

// CheckpointName is the event name of every checkpoint instant.
const CheckpointName = "ckpt"

// Checkpoint is the parsed form of one checkpoint event.
type Checkpoint struct {
	// Cycle is the capture cycle (the event's instant).
	Cycle int64 `json:"cycle"`
	// DesignHash fingerprints the compiled design (schedule dump); a rewind
	// against a differently compiled workload fails fast instead of
	// diverging silently.
	DesignHash uint64 `json:"designHash"`
	// Seed is the fault plan's seed (0 for no plan or hand-written plans).
	Seed int64 `json:"seed"`
	// StateHash digests the machine's fast-forward-invariant observable
	// state at Cycle (see sim.Machine.StateHash).
	StateHash uint64 `json:"stateHash"`
}

// FormatCheckpointDetail renders the checkpoint's detail string; the cycle
// travels as the event's instant, not in the detail.
func FormatCheckpointDetail(c Checkpoint) string {
	return fmt.Sprintf("design=%016x seed=%d hash=%016x", c.DesignHash, c.Seed, c.StateHash)
}

// ParseCheckpointDetail parses a detail string written by
// FormatCheckpointDetail back into a Checkpoint at the given cycle. Details
// from older spills also carry the fast-forward statistics at capture time
// (jumps= and skipped=); those fields are checked for well-formedness and
// ignored.
func ParseCheckpointDetail(cycle int64, detail string) (Checkpoint, error) {
	c := Checkpoint{Cycle: cycle}
	sawDesign, sawHash := false, false
	for _, f := range strings.Fields(detail) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return c, fmt.Errorf("obs: checkpoint detail: field %q is not key=value", f)
		}
		var err error
		switch k {
		case "design":
			c.DesignHash, err = strconv.ParseUint(v, 16, 64)
			sawDesign = true
		case "seed":
			c.Seed, err = strconv.ParseInt(v, 10, 64)
		case "hash":
			c.StateHash, err = strconv.ParseUint(v, 16, 64)
			sawHash = true
		case "jumps", "skipped":
			_, err = strconv.ParseInt(v, 10, 64)
		default:
			return c, fmt.Errorf("obs: checkpoint detail: unknown field %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("obs: checkpoint detail: field %q: %v", f, err)
		}
	}
	if !sawDesign || !sawHash {
		return c, fmt.Errorf("obs: checkpoint detail %q: missing design= or hash=", detail)
	}
	return c, nil
}

// ExtractCheckpoints parses every checkpoint event out of an event stream, in
// stream order.
func ExtractCheckpoints(events []Event) ([]Checkpoint, error) {
	var out []Checkpoint
	for _, e := range events {
		if e.Kind != KindCheckpoint {
			continue
		}
		c, err := ParseCheckpointDetail(e.Start, e.Detail)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
