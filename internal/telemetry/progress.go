package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// ProgressSnapshot is one instant of a run's progress, produced by the
// caller's Snapshot callback: overall trial counts plus the segment
// currently executing, so the rendered line can show where the quarantines
// are landing.
type ProgressSnapshot struct {
	// Segment names the segment currently executing ("T3", "trials").
	Segment string
	// SegmentQuarantined is the quarantine count within that segment.
	SegmentQuarantined int
	// Done counts durable trials (salvaged + written); Total is the run's
	// planned trial count; Quarantined is the run-wide quarantine count.
	Done, Total, Quarantined int
}

// Progress renders a single live status line — trials/sec, ETA, quarantine
// counts — on a ticker. The rendering is a pure function of (snapshot,
// clock), with the clock injectable, so the line format is golden-testable
// without timers; Start/Stop drive it under a real ticker for interactive
// runs. The reporter only ever reads counters: it cannot perturb the record
// stream.
type Progress struct {
	// Out receives the line (normally stderr). Each tick rewrites the line
	// in place with a carriage return; Stop prints the final state with a
	// newline.
	Out io.Writer
	// Snapshot supplies the current progress state.
	Snapshot func() ProgressSnapshot
	// Interval is the tick period (default 1s).
	Interval time.Duration
	// Now replaces time.Now — the deterministic-clock seam for tests.
	Now func() time.Time

	start    time.Time
	lastLen  int
	stopOnce sync.Once
	quit     chan struct{}
	finished chan struct{}
}

func (p *Progress) now() time.Time {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

// Begin marks the run's start time without starting the ticker — the
// entry point for tests driving Line directly.
func (p *Progress) Begin() { p.start = p.now() }

// Start begins rendering: one line immediately, then one per interval,
// until Stop.
func (p *Progress) Start() {
	p.Begin()
	interval := p.Interval
	if interval <= 0 {
		interval = time.Second
	}
	p.quit = make(chan struct{})
	p.finished = make(chan struct{})
	p.render(p.now(), false)
	go func() {
		defer close(p.finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				return
			case now := <-t.C:
				p.render(now, false)
			}
		}
	}()
}

// Stop halts the ticker and prints the final line with a newline. Safe to
// call more than once; a Progress that was never Started is a no-op.
func (p *Progress) Stop() {
	p.stopOnce.Do(func() {
		if p.quit == nil {
			return
		}
		close(p.quit)
		<-p.finished
		p.render(p.now(), true)
	})
}

// render writes the current line, padding over the previous one.
func (p *Progress) render(now time.Time, final bool) {
	line := p.Line(now)
	pad := ""
	if n := p.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	p.lastLen = len(line)
	end := ""
	if final {
		end = "\n"
	}
	fmt.Fprintf(p.Out, "\r%s%s%s", line, pad, end)
}

// Line renders the progress line for the given instant:
//
//	progress: [T3] 1234/46080 (2.7%) | 512.3 trials/s | eta 1m27s | quarantined 3 (2 in T3)
//
// Rate and ETA derive from the time elapsed since Begin/Start. With nothing
// done yet the rate is unknown and the ETA renders as "?"; the quarantine
// clause appears only when something was quarantined.
func (p *Progress) Line(now time.Time) string {
	s := p.Snapshot()
	elapsed := now.Sub(p.start)
	var b strings.Builder
	fmt.Fprintf(&b, "progress: [%s] %d/%d", s.Segment, s.Done, s.Total)
	if s.Total > 0 {
		fmt.Fprintf(&b, " (%.1f%%)", 100*float64(s.Done)/float64(s.Total))
	}
	if s.Done > 0 && elapsed > 0 {
		rate := float64(s.Done) / elapsed.Seconds()
		fmt.Fprintf(&b, " | %.1f trials/s", rate)
		remaining := s.Total - s.Done
		if remaining > 0 && rate > 0 {
			eta := time.Duration(float64(remaining) / rate * float64(time.Second)).Round(time.Second)
			fmt.Fprintf(&b, " | eta %s", eta)
		} else if remaining == 0 {
			fmt.Fprintf(&b, " | done in %s", elapsed.Round(time.Second))
		}
	} else {
		b.WriteString(" | eta ?")
	}
	if s.Quarantined > 0 {
		fmt.Fprintf(&b, " | quarantined %d", s.Quarantined)
		if s.Segment != "" && s.SegmentQuarantined > 0 {
			fmt.Fprintf(&b, " (%d in %s)", s.SegmentQuarantined, s.Segment)
		}
	}
	return b.String()
}
