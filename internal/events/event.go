package events

import (
	"fmt"
	"strconv"
	"strings"
)

// Span scopes, innermost last. A span is a pair of events, <scope>.begin
// and <scope>.end, sharing a span ID; everything emitted between them with
// the journal's scope set carries that ID as its parent.
const (
	ScopeJob     = "job"
	ScopeSegment = "segment"
	ScopeBatch   = "batch"
)

// Point event types. Span begin/end types are derived from the scope
// constants above ("job.begin", "segment.end", ...).
const (
	TypeAdmit         = "job.admit"      // spec entered the admission queue
	TypeDedupe        = "job.dedupe"     // submission coalesced onto a live fingerprint
	TypeEvict         = "job.evict"      // bounded queue displaced the oldest queued job
	TypeReject        = "job.reject"     // submission refused outright
	TypeRetry         = "job.retry"      // transient failure; attempt will re-run
	TypeCheckpoint    = "job.checkpoint" // job parked resumable mid-run
	TypeCancel        = "job.cancel"     // cancellation requested
	TypeJobQuarantine = "job.quarantine" // job failed terminally
	TypeDrain         = "drain"          // supervisor began graceful shutdown
	TypeSalvage       = "salvage"        // records recovered from a partial shard file
	TypeTornTail      = "torn_tail"      // torn trailing bytes discarded on resume
	TypeQuarantine    = "quarantine"     // one trial quarantined (Cause says why)
	TypeFlush         = "sink.flush"     // buffered sink flushed to its writer
)

// Quarantine causes, mirroring the telemetry counters.
const (
	CausePanic    = "panic"
	CauseDeadline = "deadline"
	CauseOther    = "other"
)

// NoTrial marks an event that carries no trial index. Trial indices are
// global slot positions (the record stream's "i" field), so zero is a
// valid index and cannot be the sentinel.
const NoTrial int64 = -1

// Event is one journal entry. The struct is flat and self-describing so a
// JSONL line round-trips without context: Seq orders events totally within
// a process, Span/Parent encode the span tree, and the remaining fields
// are meaningful per Type. String fields only ever hold package constants
// or segment names that outlive the event, so an Event never owns memory.
type Event struct {
	Seq    uint64 `json:"seq"`              // process-monotonic, starts at 1
	TimeNs int64  `json:"t"`                // clock reading, Unix nanoseconds
	Type   string `json:"ev"`               // one of the Type*/scope constants
	Span   uint64 `json:"span,omitempty"`   // span ID on <scope>.begin/.end
	Parent uint64 `json:"parent,omitempty"` // enclosing span ID, 0 at the root
	Job    int64  `json:"job,omitempty"`    // supervisor job ID, 0 standalone
	Seg    string `json:"seg,omitempty"`    // segment name within the plan
	Trial  int64  `json:"trial"`            // global trial index, NoTrial if none
	N      int64  `json:"n,omitempty"`      // type-specific count (trials, bytes, attempt)
	Cause  string `json:"cause,omitempty"`  // quarantine cause or end status
}

// Format renders the event as one stable human-readable line, shared by
// `sweeprun tail` and tests.
func (e Event) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d  %-14s", e.Seq, e.Type)
	if e.Job != 0 {
		b.WriteString(" job=")
		b.WriteString(strconv.FormatInt(e.Job, 10))
	}
	if e.Seg != "" {
		b.WriteString(" seg=")
		b.WriteString(e.Seg)
	}
	if e.Trial != NoTrial {
		b.WriteString(" trial=")
		b.WriteString(strconv.FormatInt(e.Trial, 10))
	}
	if e.N != 0 {
		b.WriteString(" n=")
		b.WriteString(strconv.FormatInt(e.N, 10))
	}
	if e.Cause != "" {
		b.WriteString(" cause=")
		b.WriteString(e.Cause)
	}
	if e.Span != 0 {
		fmt.Fprintf(&b, " span=%d", e.Span)
	}
	if e.Parent != 0 {
		fmt.Fprintf(&b, " parent=%d", e.Parent)
	}
	return b.String()
}
