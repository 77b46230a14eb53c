// Package persist makes the control plane durable: an append-only command
// journal plus a small checkpoint, so a crashed apiserver (or a killed
// experiment run) recovers to byte-identical state.
//
// The simulation engine's pending events are Go closures and cannot be
// serialized, so recovery is replay-based. The journal (the WAL) is the
// only record of commands (pod submissions and /advance steps): it is
// appended to for the life of the state directory and never reset.
// Replaying it through a control plane freshly built from its Bootstrap —
// everything needed to reconstruct the control plane from its seed —
// reproduces the exact event sequence, RNG draws and tie-breaks of the
// original run.
//
// The checkpoint (the snapshot file) holds the Bootstrap, the number N of
// journal records it covers and the serialized State those N records
// produce — the observable control-plane state, which `knotsctl state
// inspect` can read offline without replaying anything. Recovery is: load
// the checkpoint at N and the journal 1..M, refuse if M < N (acknowledged
// commands were lost), replay 1..N, byte-compare against the checkpoint's
// State to prove the replay landed on the same trajectory, then replay
// N+1..M. A torn final record (crash mid-write) is detected by its CRC and
// dropped.
package persist

import (
	"bytes"
	"encoding/json"
	"fmt"

	"kubeknots/internal/sim"
)

// Bootstrap captures everything needed to rebuild a control plane from
// scratch. Stored as JSON inside the checkpoint so the format survives
// field additions.
type Bootstrap struct {
	// Kind is "apiserver", "knotsd" or "experiment".
	Kind string `json:"kind"`
	// Seed is the simulation engine seed.
	Seed int64 `json:"seed"`
	// Nodes is the cluster size (0 = package default).
	Nodes int `json:"nodes,omitempty"`
	// Hetero selects the heterogeneous GPU pool.
	Hetero bool `json:"hetero,omitempty"`
	// Scheduler is the scheduler name as accepted by SchedulerByName.
	Scheduler string `json:"scheduler,omitempty"`
	// HarvestSpec is the harvest controller spec string ("" = disabled).
	HarvestSpec string `json:"harvestSpec,omitempty"`
	// RunKey identifies an experiment grid point (Kind "experiment" only).
	RunKey string `json:"runKey,omitempty"`
}

// Equal reports whether two bootstraps describe the same control plane.
func (b Bootstrap) Equal(o Bootstrap) bool {
	return bytes.Equal(mustJSON(b), mustJSON(o))
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of scalars cannot fail to marshal
	}
	return data
}

// Record types in the command log.
const (
	// RecordSubmit carries a canonical pod-manifest JSON.
	RecordSubmit = byte(1)
	// RecordAdvance carries a clock step in simulated milliseconds.
	RecordAdvance = byte(2)
)

// Record is one durable control-plane command.
type Record struct {
	Type byte
	// Manifest is the canonical manifest JSON (RecordSubmit).
	Manifest []byte
	// MS is the advance step (RecordAdvance).
	MS int64
	// Seq is the record's 1-based journal position, assigned by the WAL
	// when the record is journaled.
	Seq uint64
}

// SubmitRecord wraps a canonical manifest JSON.
func SubmitRecord(manifest []byte) Record {
	return Record{Type: RecordSubmit, Manifest: manifest}
}

// AdvanceRecord wraps a clock step.
func AdvanceRecord(ms int64) Record { return Record{Type: RecordAdvance, MS: ms} }

func (r Record) validate() error {
	switch r.Type {
	case RecordSubmit:
		if len(r.Manifest) == 0 {
			return fmt.Errorf("persist: submit record with empty manifest")
		}
	case RecordAdvance:
		if r.MS <= 0 {
			return fmt.Errorf("persist: advance record with non-positive step %d", r.MS)
		}
	default:
		return fmt.Errorf("persist: unknown record type %d", r.Type)
	}
	return nil
}

// RunSpec configures crash-recovery checkpointing for one experiment run.
// The zero value disables persistence entirely; a disabled spec leaves the
// run byte-identical to a build without the subsystem.
type RunSpec struct {
	// Dir is the state directory shared by every grid point of a sweep.
	Dir string
	// CrashAt, when positive, injects a controller crash at that simulated
	// time: the run snapshots its state and panics. A later run with the
	// same Dir finds the snapshot, re-executes deterministically, verifies
	// byte-identity at the capture point and continues to completion.
	CrashAt sim.Time
}

// Enabled reports whether the spec requests persistence.
func (r RunSpec) Enabled() bool { return r.Dir != "" }

// CrashError is the panic payload of an injected experiment crash. The
// sweep pool converts it into a job error, so a crash run exits non-zero
// after every grid point has written its snapshot.
type CrashError struct {
	Key string
	At  sim.Time
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("persist: injected crash of %s at %v (snapshot written)", e.Key, e.At)
}
