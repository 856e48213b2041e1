package events

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adhocconsensus/internal/telemetry"
)

// Options configures a Journal. The zero value is usable: capacity 8192
// and the wall clock.
type Options struct {
	// Capacity bounds the ring buffer, rounded up to a power of two.
	Capacity int
	// Clock supplies event timestamps; tests inject a deterministic one.
	Clock func() time.Time
}

// batchEvery is how many delivered trials a trial-batch span covers before
// it closes and a new one opens.
const batchEvery = 256

// scope is the journal's current execution context: the job and segment
// spans the single execution slot is inside. It is published as one
// immutable value so concurrent emitters (sweep workers, the sink) read a
// consistent view with a single atomic load.
type scope struct {
	job     int64
	jobSpan uint64
	seg     string
	segSpan uint64
}

// Journal is a bounded, lock-free event ring with fan-out subscriptions.
// Emission is safe from any goroutine; the span/scope helpers (BeginJob,
// BeginSegment, batch spans) must be driven by a single execution slot at
// a time, which the job supervisor already guarantees.
type Journal struct {
	clock  func() time.Time
	mask   uint64
	ring   []atomic.Pointer[Event]
	seq    atomic.Uint64
	spanID atomic.Uint64
	scope  atomic.Pointer[scope]

	submu    sync.Mutex
	subs     atomic.Pointer[[]*Subscription]
	subCount int
}

// New builds a journal from opts.
func New(opts Options) *Journal {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 8192
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Journal{
		clock: clock,
		mask:  uint64(size - 1),
		ring:  make([]atomic.Pointer[Event], size),
	}
}

// active is the process-global journal, nil until Activate. Unlike
// telemetry.Enable it is not one-way: tests and sequential daemon runs in
// one process install fresh journals.
var active atomic.Pointer[Journal]

// Activate installs j as the process journal (nil deactivates).
func Activate(j *Journal) { active.Store(j) }

// Active returns the process journal, nil when journaling is off. All
// Journal methods are nil-receiver safe, so callers chain without checks.
func Active() *Journal { return active.Load() }

// BatchEvery returns the trial-batch span width. On a nil journal it
// returns a value large enough that batch rollover never triggers.
func (j *Journal) BatchEvery() int {
	if j == nil {
		return 1 << 30
	}
	return batchEvery
}

// Seq returns the last assigned sequence number (0 before any event).
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	return j.seq.Load()
}

// Emit stamps e with the next sequence number, the clock, and — for point
// events — the current scope's job/segment/parent, then publishes it to
// the ring and every subscriber. Returns the assigned sequence number.
func (j *Journal) Emit(e Event) uint64 {
	if j == nil {
		return 0
	}
	if sc := j.scope.Load(); sc != nil {
		if e.Job == 0 {
			e.Job = sc.job
		}
		if e.Seg == "" {
			e.Seg = sc.seg
		}
		// Span events compute their parent explicitly; points nest in the
		// innermost open span.
		if e.Span == 0 && e.Parent == 0 {
			if sc.segSpan != 0 {
				e.Parent = sc.segSpan
			} else {
				e.Parent = sc.jobSpan
			}
		}
	}
	e.Seq = j.seq.Add(1)
	e.TimeNs = j.clock().UnixNano()
	ev := e // one heap allocation: the ring holds pointers so readers never race a rewrite
	j.ring[(e.Seq-1)&j.mask].Store(&ev)
	telemetry.Events().Emitted.Inc()
	if subs := j.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.deliver(e)
		}
	}
	return e.Seq
}

// Point emits a point event in the current scope. Callers without a trial
// index pass NoTrial.
func (j *Journal) Point(typ string, trial, n int64, cause string) {
	if j == nil {
		return
	}
	j.Emit(Event{Type: typ, Trial: trial, N: n, Cause: cause})
}

// PointJob emits a point event pinned to an explicit job ID — supervisor
// queue events (admit, dedupe, evict, retry, ...) that concern a job the
// scope is not inside.
func (j *Journal) PointJob(typ string, job, n int64) {
	if j == nil {
		return
	}
	j.Emit(Event{Type: typ, Job: job, Trial: NoTrial, N: n})
}

// BeginJob opens a job span and sets the journal scope to it, so every
// event emitted by the execution slot until EndJob carries the job ID.
func (j *Journal) BeginJob(job int64) uint64 {
	if j == nil {
		return 0
	}
	id := j.spanID.Add(1)
	j.Emit(Event{Type: ScopeJob + ".begin", Span: id, Job: job, Trial: NoTrial})
	j.scope.Store(&scope{job: job, jobSpan: id})
	return id
}

// EndJob closes the job span with a terminal cause (the job state) and
// clears the scope. A zero span (nil journal at Begin time) is a no-op.
func (j *Journal) EndJob(span uint64, cause string) {
	if j == nil || span == 0 {
		return
	}
	j.Emit(Event{Type: ScopeJob + ".end", Span: span, Trial: NoTrial, Cause: cause})
	j.scope.Store(nil)
}

// BeginSegment opens a segment span nested in the current job span and
// narrows the scope to the segment.
func (j *Journal) BeginSegment(name string) uint64 {
	if j == nil {
		return 0
	}
	sc := j.scope.Load()
	id := j.spanID.Add(1)
	e := Event{Type: ScopeSegment + ".begin", Span: id, Seg: name, Trial: NoTrial}
	ns := scope{seg: name, segSpan: id}
	if sc != nil {
		e.Parent, e.Job = sc.jobSpan, sc.job
		ns.job, ns.jobSpan = sc.job, sc.jobSpan
	}
	j.Emit(e)
	j.scope.Store(&ns)
	return id
}

// EndSegment closes a segment span with the number of trials it streamed
// and an optional cause, restoring the job-level scope.
func (j *Journal) EndSegment(span uint64, n int64, cause string) {
	if j == nil || span == 0 {
		return
	}
	sc := j.scope.Load()
	e := Event{Type: ScopeSegment + ".end", Span: span, Trial: NoTrial, N: n, Cause: cause}
	if sc != nil {
		e.Parent = sc.jobSpan
		j.scope.Store(&scope{job: sc.job, jobSpan: sc.jobSpan})
	}
	j.Emit(e)
	return
}

// BeginBatch opens a trial-batch span starting at global trial index
// first, nested in the innermost open span. Batches do not alter scope.
func (j *Journal) BeginBatch(first int64) uint64 {
	if j == nil {
		return 0
	}
	id := j.spanID.Add(1)
	e := Event{Type: ScopeBatch + ".begin", Span: id, Trial: first}
	if sc := j.scope.Load(); sc != nil {
		if sc.segSpan != 0 {
			e.Parent = sc.segSpan
		} else {
			e.Parent = sc.jobSpan
		}
	}
	j.Emit(e)
	return id
}

// EndBatch closes a trial-batch span covering n trials from first.
func (j *Journal) EndBatch(span uint64, first, n int64) {
	if j == nil || span == 0 {
		return
	}
	j.Emit(Event{Type: ScopeBatch + ".end", Span: span, Trial: first, N: n})
}

// Snapshot returns the ring's surviving events with Seq > after, in
// sequence order. Events older than the ring capacity have been
// overwritten and are absent — the durable export, not the ring, is the
// lossless record.
func (j *Journal) Snapshot(after uint64) []Event {
	if j == nil {
		return nil
	}
	out := make([]Event, 0, len(j.ring))
	for i := range j.ring {
		if ev := j.ring[i].Load(); ev != nil && ev.Seq > after {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Subscription is one fan-out consumer. Non-blocking subscriptions drop
// events when their buffer is full (the explicit slow-consumer policy;
// drops are counted here and in telemetry); blocking subscriptions apply
// backpressure to emitters and never lose events — the durable exporter's
// mode. Close unregisters and releases any emitter blocked on delivery.
type Subscription struct {
	j       *Journal
	ch      chan Event
	done    chan struct{}
	block   bool
	dropped atomic.Uint64
	once    sync.Once
}

// Subscribe registers a consumer with the given buffer. block selects the
// lossless backpressure mode; otherwise events are dropped when the
// buffer is full.
func (j *Journal) Subscribe(buf int, block bool) *Subscription {
	if j == nil {
		return nil
	}
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{j: j, ch: make(chan Event, buf), done: make(chan struct{}), block: block}
	j.submu.Lock()
	var ns []*Subscription
	if old := j.subs.Load(); old != nil {
		ns = append(ns, *old...)
	}
	ns = append(ns, s)
	j.subs.Store(&ns)
	j.subCount++
	telemetry.Events().Subscribers.Set(int64(j.subCount))
	j.submu.Unlock()
	return s
}

// Follow returns the ring history plus a live non-blocking subscription.
// The subscription is registered before the snapshot is taken, so no
// event falls between them; the consumer must skip channel events with
// Seq at or below the last snapshot Seq (the overlap is duplicated, never
// gapped).
func (j *Journal) Follow(buf int) ([]Event, *Subscription) {
	if j == nil {
		return nil, nil
	}
	sub := j.Subscribe(buf, false)
	return j.Snapshot(0), sub
}

func (j *Journal) unsubscribe(s *Subscription) {
	j.submu.Lock()
	defer j.submu.Unlock()
	if old := j.subs.Load(); old != nil {
		ns := make([]*Subscription, 0, len(*old))
		for _, o := range *old {
			if o != s {
				ns = append(ns, o)
			}
		}
		j.subs.Store(&ns)
	}
	j.subCount--
	telemetry.Events().Subscribers.Set(int64(j.subCount))
}

func (s *Subscription) deliver(e Event) {
	if s.block {
		select {
		case s.ch <- e:
		case <-s.done:
		}
		return
	}
	select {
	case s.ch <- e:
	default:
		s.dropped.Add(1)
		telemetry.Events().Dropped.Inc()
	}
}

// C is the event channel. Buffered events remain readable after Close.
func (s *Subscription) C() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Done is closed when the subscription closes.
func (s *Subscription) Done() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.done
}

// Dropped returns how many events the slow-consumer policy discarded on
// this subscription.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close unregisters the subscription. Idempotent; safe on nil.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		s.j.unsubscribe(s)
		close(s.done)
	})
}
