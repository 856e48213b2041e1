package jobs

import "adhocconsensus/internal/telemetry"

// State is a job's lifecycle position. The happy path is Queued → Running →
// Done; a drain parks a running job at Checkpointed (resumable — its shard
// file holds a durable prefix and re-admission continues it), the circuit
// breaker and non-transient failures land at Quarantined, and Canceled
// covers explicit cancellation plus eviction from the bounded queue.
type State string

const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateCheckpointed State = "checkpointed"
	StateDone         State = "done"
	StateQuarantined  State = "quarantined"
	StateCanceled     State = "canceled"
)

// Terminal reports whether the state ends the job's lifecycle under this
// supervisor instance. Checkpointed is NOT terminal in the durable sense —
// a restart re-admits it — but this instance will not touch it again.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateQuarantined, StateCanceled, StateCheckpointed:
		return true
	}
	return false
}

// Job is one supervised run of a Spec. Fields are guarded by the owning
// Supervisor's mutex; callers outside the package only ever see Status
// snapshots.
type Job struct {
	ID          int64
	Spec        Spec
	Fingerprint string
	State       State
	// Attempts counts executions, retries included.
	Attempts int
	// Err is the last attempt's error text ("" while none).
	Err string
	// ExitCode classifies the last attempt per the documented exit-code
	// table (0 while the job has not finished an attempt).
	ExitCode int
	// Report is the last attempt's run report, nil until one completes.
	Report *telemetry.Report
	// cancelRequested distinguishes an explicit Cancel from a drain when
	// the running attempt comes back interrupted.
	cancelRequested bool
	// admitted is closed once Submit has journaled the job's admission (nil
	// for jobs reloaded from a manifest), so that point never lands in the
	// first attempt's events file.
	admitted chan struct{}
}

// Status is the externally visible snapshot of a job, JSON-shaped for the
// daemon's HTTP surface. The run report rides along verbatim: job status
// documents reuse the telemetry.Report schema instead of inventing one.
type Status struct {
	ID          int64             `json:"id"`
	Fingerprint string            `json:"fingerprint"`
	State       State             `json:"state"`
	Attempts    int               `json:"attempts"`
	ExitCode    int               `json:"exit_code"`
	Error       string            `json:"error,omitempty"`
	Spec        Spec              `json:"spec"`
	Report      *telemetry.Report `json:"report,omitempty"`
}

func (j *Job) status() Status {
	return Status{
		ID:          j.ID,
		Fingerprint: j.Fingerprint,
		State:       j.State,
		Attempts:    j.Attempts,
		ExitCode:    j.ExitCode,
		Error:       j.Err,
		Spec:        j.Spec,
		Report:      j.Report,
	}
}
