package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/telemetry"
)

// Outcome is what streaming a segment plan produced: the per-segment report
// accounting plus the run's classification errors. TrialErr is the first
// per-trial error (the run still completed; exit code 2); AbortErr is
// whatever stopped the stream early (a sink failure or a cooperative
// cancellation), nil when it ran to the end.
type Outcome struct {
	Segments []telemetry.ReportSegment
	Causes   telemetry.ReportQuarantine
	TrialErr error
	AbortErr error
}

// Err collapses the outcome into the run's single reportable error:
// an abort dominates, then the first per-trial error, then nil.
func (o Outcome) Err() error {
	if o.AbortErr != nil {
		return o.AbortErr
	}
	return o.TrialErr
}

// Stream executes a segment plan against w: each segment streams its trials
// from its skip on, per-trial errors (quarantined panics, deadline overruns)
// do not stop the run — later segments still execute and the first such
// error lands in TrialErr. Everything else — sink failures, interrupts —
// aborts, leaving the flushed valid prefix on disk. onEnter (when non-nil)
// observes each segment as it starts, for progress rendering.
//
// Stream owns each segment's *sink.JSONL: it creates it over w, flushes it,
// and reads the segment's executed, quarantined and record-byte counts from
// its Tally, so those counts belong to this call alone. Only the by-cause
// quarantine split is a delta of the process-global sim.quarantine.*
// counters, which is why a supervisor must not interleave two Streams.
func Stream(ctx context.Context, segs []Segment, skips []int, w io.Writer, onEnter func(name string)) Outcome {
	tm := telemetry.Sim()
	jal := events.Active()
	panicBase, deadlineBase := tm.QuarantinePanic.Load(), tm.QuarantineDeadline.Load()
	out := Outcome{Segments: make([]telemetry.ReportSegment, 0, len(segs))}
	for i, s := range segs {
		if onEnter != nil {
			onEnter(s.Name)
		}
		segStart := time.Now()
		span := jal.BeginSegment(s.Name)
		j := sink.NewJSONL(w)
		j.Exp = s.Name
		err := s.Stream(ctx, skips[i], j)
		var te *sim.TrialError
		perTrial := errors.As(err, &te)
		// A tail that never reached w aborts the run, even one whose trials
		// all completed.
		if ferr := j.Flush(); ferr != nil && (err == nil || perTrial) {
			err, perTrial = cli.WithExit(cli.ExitSink, ferr), false
		}
		executed, quarantined, recBytes := j.Tally()
		out.Segments = append(out.Segments, telemetry.ReportSegment{
			Name:        s.Name,
			Schedule:    s.Schedule,
			Planned:     s.Length,
			Salvaged:    skips[i],
			Executed:    executed,
			Quarantined: quarantined,
			WallNs:      time.Since(segStart).Nanoseconds(),
			RecordBytes: recBytes,
		})
		if err == nil || perTrial {
			// Per-trial errors do not stop the run; the segment completed.
			jal.EndSegment(span, int64(executed), "")
			if err != nil && out.TrialErr == nil {
				out.TrialErr = fmt.Errorf("%s: %w", s.Name, err)
			}
			continue
		}
		jal.EndSegment(span, int64(executed), "abort")
		out.AbortErr = fmt.Errorf("%s: %w", s.Name, err)
		break
	}
	out.Causes = telemetry.ReportQuarantine{
		Panic:    int(tm.QuarantinePanic.Load() - panicBase),
		Deadline: int(tm.QuarantineDeadline.Load() - deadlineBase),
	}
	return out
}

// StatusOf classifies a finished run for its report.
func StatusOf(abortErr, trialErr error) string {
	switch {
	case abortErr != nil && cli.IsInterrupt(abortErr):
		return telemetry.StatusInterrupted
	case abortErr != nil:
		return telemetry.StatusAborted
	case trialErr != nil:
		return telemetry.StatusTrialErrors
	default:
		return telemetry.StatusOK
	}
}

// BuildReport assembles the run report from the segment accounting and the
// live registry. The by-cause quarantine split comes from the sweep
// runner's counters, which count a quarantine when the sink accepts its
// record — the moment the segment's sink tallies it — so panic and
// deadline are part of the sinks' total and Other is the rest.
func BuildReport(command, status string, wall time.Duration, segs []telemetry.ReportSegment, causes telemetry.ReportQuarantine) *telemetry.Report {
	rep := &telemetry.Report{
		Schema:    telemetry.ReportSchema,
		Command:   command,
		Status:    status,
		Generated: time.Now().UTC().Format(time.RFC3339),
		WallNs:    wall.Nanoseconds(),
		Segments:  segs,
	}
	for _, s := range segs {
		rep.Trials.Planned += s.Planned
		rep.Trials.Salvaged += s.Salvaged
		rep.Trials.Executed += s.Executed
		rep.Trials.Quarantined.Total += s.Quarantined
	}
	causes.Total = rep.Trials.Quarantined.Total
	causes.Other = causes.Total - causes.Panic - causes.Deadline
	rep.Trials.Quarantined = causes
	if c := EngineCalibrationSnapshot(); c != nil {
		rep.Calibration = c
	}
	if reg := telemetry.Default(); reg != nil {
		rep.Histograms = make(map[string]telemetry.HistogramSnapshot)
		rep.Metrics = make(map[string]any)
		for name, v := range reg.Snapshot() {
			if h, ok := v.(telemetry.HistogramSnapshot); ok {
				if h.Count > 0 {
					rep.Histograms[name] = h
				}
				continue
			}
			rep.Metrics[name] = v
		}
	}
	return rep
}

// EngineCalibrationSnapshot reads the calibration gauges back; nil when the
// engine never calibrated (a run that stayed sequential end to end).
func EngineCalibrationSnapshot() *telemetry.ReportCalibration {
	em := telemetry.Engine()
	w := em.CalWorkers.Load()
	if w == 0 {
		return nil
	}
	return &telemetry.ReportCalibration{
		Workers:   int(w),
		MinProcs:  int(em.CalMinProcs.Load()),
		BarrierNs: float64(em.CalBarrierNs.Load()),
		StepNs:    float64(em.CalStepNs.Load()),
	}
}
