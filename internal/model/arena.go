package model

import (
	"fmt"
	"sync"

	"adhocconsensus/internal/multiset"
)

// RecvEntry is one distinct received message with its multiplicity: the unit
// of the arena's columnar receive-set storage. Segments produced by the
// engines hold distinct messages (they are snapshots of a receive multiset),
// in the multiset's unspecified iteration order; every consumer compares and
// exports them with multiset semantics, never by position.
type RecvEntry = multiset.Pair[Message]

// TraceArena stores the per-round views of an execution (Definition 11) as
// dense, append-only columns: one flat slice per view field (sent message,
// collision and contention advice, crash bit), indexed by round-major cell
// index row*n + procIdx, plus a shared receive arena of RecvEntry segments
// addressed by per-cell end offsets. Recording a full execution this way
// costs zero steady-state heap allocations — columns grow geometrically and
// nothing is boxed per round — which is what makes TraceFull runs as cheap
// as decisions-only ones.
//
// # Ownership and reuse rules
//
//   - An arena is owned by the Execution whose Arena field references it. The
//     producing engine appends to it during the run; from the moment the run
//     returns it is read-only. Nothing in this package mutates a recorded
//     arena.
//   - Views handed out by accessors (ViewAt, Execution.View, Round.ViewOf)
//     are snapshots: their Sent pointer and Recv multiset are freshly
//     materialized per call, so callers may mutate them freely without
//     corrupting the arena, and must not expect mutations to be visible to
//     other readers.
//   - Writer methods (BeginRound, RecordCell, FinishCellRecv) follow a strict
//     protocol — rounds begin in order, RecordCell may run concurrently for
//     distinct cells of the open row, FinishCellRecv runs sequentially in
//     ascending cell order — and are for the engine and for tests or proof
//     constructions that build an execution by hand; analysis code only
//     reads.
type TraceArena struct {
	n int // processes per round (cells per row)

	numbers []int   // per-round round number
	senders []int32 // per-round broadcaster count (the c of Definition 4)

	// Per-cell columns, all of length rounds*n.
	sent    []Message  // broadcast message; meaningful when hasSent
	hasSent []bool     // whether the process broadcast
	cd      []CDAdvice // collision detector advice
	cm      []CMAdvice // contention manager advice
	crashed []bool     // fail state
	recvEnd []int32    // end offset of the cell's segment in recv
	recvLen []int32    // |recv|: total message instances received

	recv []RecvEntry // shared receive arena; cell k owns recv[end(k-1):end(k)]

	cell int // next cell to finish in the open row (writer cursor)

	poolKey arenaKey // reuse-pool bucket this arena returns to on Release
}

// hintRows clamps a rounds hint to the pre-sizing bounds: both per-dimension
// and in total cells, so huge horizons do not reserve huge buffers up front.
func hintRows(n, roundsHint int) int {
	const (
		maxHintRows  = 1 << 10
		maxHintCells = 1 << 16
	)
	rows := roundsHint
	if rows < 1 {
		rows = 1
	}
	if rows > maxHintRows {
		rows = maxHintRows
	}
	if rows*n > maxHintCells {
		rows = maxHintCells / n
		if rows < 1 {
			rows = 1
		}
	}
	return rows
}

// NewTraceArena returns an empty arena for n-process rounds. roundsHint
// pre-sizes the columns (clamped by hintRows); the arena grows geometrically
// past the hint.
func NewTraceArena(n, roundsHint int) *TraceArena {
	if n <= 0 {
		panic("model: TraceArena needs n >= 1")
	}
	rows := hintRows(n, roundsHint)
	cells := rows * n
	return &TraceArena{
		n:       n,
		numbers: make([]int, 0, rows),
		senders: make([]int32, 0, rows),
		sent:    make([]Message, 0, cells),
		hasSent: make([]bool, 0, cells),
		cd:      make([]CDAdvice, 0, cells),
		cm:      make([]CMAdvice, 0, cells),
		crashed: make([]bool, 0, cells),
		recvEnd: make([]int32, 0, cells),
		recvLen: make([]int32, 0, cells),
		recv:    make([]RecvEntry, 0, cells),
		poolKey: arenaKey{n: n, rows: rows},
	}
}

// arenaKey buckets the reuse pool by shape: arenas are interchangeable only
// within a process count, and bucketing by the clamped rounds hint keeps a
// short run from being handed (and then growing) a small arena meant for a
// long horizon's pool.
type arenaKey struct{ n, rows int }

// arenaPools recycles released arenas per shape bucket. Trace-heavy
// pipelines that digest an execution and hand its arena back (validation
// sweeps, lower-bound searches, the replay verifier) run allocation-free in
// steady state: the arena's columns — the last per-run allocation of a
// TraceFull run — are reused with their grown capacity instead of being
// reallocated every run.
var arenaPools sync.Map // arenaKey -> *sync.Pool

// AcquireTraceArena returns a reset arena from the (rounds, n) reuse pool,
// or a fresh one when the bucket is empty. Pair with Execution.Release (or
// TraceArena.Release) once the recorded trace has been fully digested.
func AcquireTraceArena(n, roundsHint int) *TraceArena {
	key := arenaKey{n: n, rows: hintRows(n, roundsHint)}
	if p, ok := arenaPools.Load(key); ok {
		if a, _ := p.(*sync.Pool).Get().(*TraceArena); a != nil {
			return a
		}
	}
	return NewTraceArena(n, roundsHint)
}

// Release resets the arena and returns it to its shape bucket of the reuse
// pool. The caller must be done with every view, round, and RecvPairs slice
// derived from it: released memory is handed to the next run. Execution.
// Release is the usual entry point.
func (a *TraceArena) Release() {
	a.Reset()
	p, ok := arenaPools.Load(a.poolKey)
	if !ok {
		p, _ = arenaPools.LoadOrStore(a.poolKey, &sync.Pool{})
	}
	p.(*sync.Pool).Put(a)
}

// Reset truncates the arena for reuse, keeping every column's grown
// capacity. The writer protocol starts over at BeginRound. hasSent is
// cleared through its full capacity: BeginRound re-slices over the old
// memory and RecordCell only ever sets the flag, so a stale true from the
// previous run would otherwise fabricate a broadcast in any cell the new
// run leaves silent. The sent column also keeps stale Messages for silent
// cells (RecordCell writes it only when the process broadcast) — that is
// safe ONLY because every reader gates on hasSent; cd/cm/crashed and the
// receive offsets are written unconditionally per cell, so stale values
// there are always overwritten.
func (a *TraceArena) Reset() {
	a.numbers = a.numbers[:0]
	a.senders = a.senders[:0]
	a.sent = a.sent[:0]
	clear(a.hasSent[:cap(a.hasSent)])
	a.hasSent = a.hasSent[:0]
	a.cd = a.cd[:0]
	a.cm = a.cm[:0]
	a.crashed = a.crashed[:0]
	a.recvEnd = a.recvEnd[:0]
	a.recvLen = a.recvLen[:0]
	a.recv = a.recv[:0]
	a.cell = 0
}

// NumRounds returns the number of recorded rounds.
func (a *TraceArena) NumRounds() int { return len(a.numbers) }

// Procs returns n, the number of processes per round.
func (a *TraceArena) Procs() int { return a.n }

// Number returns the round number of row k (0-based).
func (a *TraceArena) Number(k int) int { return a.numbers[k] }

// Senders returns the broadcaster count of row k: the c component of the
// transmission trace (Definition 4), recorded once per round instead of
// derived by iterating views.
func (a *TraceArena) Senders(k int) int { return int(a.senders[k]) }

// grow extends s to length need, reallocating geometrically.
func grow[T any](s []T, need int) []T {
	if cap(s) >= need {
		return s[:need]
	}
	newCap := 2 * cap(s)
	if newCap < need {
		newCap = need
	}
	ns := make([]T, need, newCap)
	copy(ns, s)
	return ns
}

// BeginRound opens row for a new round with the given round number and
// broadcaster count, extending every column by n zeroed cells, and returns
// the row index. The previous round must be complete (all n cells finished).
func (a *TraceArena) BeginRound(number, senders int) int {
	if a.cell != len(a.numbers)*a.n {
		panic(fmt.Sprintf("model: TraceArena.BeginRound with %d unfinished cells", len(a.numbers)*a.n-a.cell))
	}
	row := len(a.numbers)
	a.numbers = append(a.numbers, number)
	a.senders = append(a.senders, int32(senders))
	need := (row + 1) * a.n
	a.sent = grow(a.sent, need)
	a.hasSent = grow(a.hasSent, need)
	a.cd = grow(a.cd, need)
	a.cm = grow(a.cm, need)
	a.crashed = grow(a.crashed, need)
	a.recvEnd = grow(a.recvEnd, need)
	a.recvLen = grow(a.recvLen, need)
	// The new cells read as zero-valued: cells are written at most once per
	// run, fresh column memory is zeroed by Go, and Reset clears hasSent
	// through its capacity before a pooled arena is reused — so
	// hasSent=false is the correct default for any cell RecordCell skips.
	return row
}

// RecordCell writes the scalar view fields of process index i in row. Safe
// to call concurrently for distinct i of the open row: every write lands at
// a distinct index of columns that BeginRound has already sized.
func (a *TraceArena) RecordCell(row, i int, sent *Message, cd CDAdvice, cm CMAdvice, crashed bool) {
	k := row*a.n + i
	if sent != nil {
		a.sent[k] = *sent
		a.hasSent[k] = true
	}
	a.cd[k] = cd
	a.cm[k] = cm
	a.crashed[k] = crashed
}

// FinishCellRecv appends the next cell's receive segment (distinct messages
// with multiplicities, as produced by Multiset.AppendPairs) and advances the
// writer cursor. Cells of a round must be finished sequentially in ascending
// process-index order; pass nil for a process that received nothing.
func (a *TraceArena) FinishCellRecv(pairs []RecvEntry) {
	k := a.cell
	if k >= len(a.recvEnd) {
		panic("model: TraceArena.FinishCellRecv past the open round")
	}
	total := 0
	for _, p := range pairs {
		total += p.Count
	}
	a.recv = append(a.recv, pairs...)
	if len(a.recv) > 1<<31-1 {
		panic("model: TraceArena receive arena overflows int32 offsets")
	}
	a.recvEnd[k] = int32(len(a.recv))
	a.recvLen[k] = int32(total)
	a.cell = k + 1
}

// FinishCellFromMultiset appends the next cell's receive segment straight
// from a receive multiset, avoiding the intermediate pair buffer the
// parallel merge path needs. Same sequential protocol as FinishCellRecv;
// the segment order is the multiset's iteration order, exactly as
// AppendPairs would have produced.
func (a *TraceArena) FinishCellFromMultiset(ms *RecvSet) {
	k := a.cell
	if k >= len(a.recvEnd) {
		panic("model: TraceArena.FinishCellFromMultiset past the open round")
	}
	total := 0
	ms.Range(func(m Message, c int) bool {
		a.recv = append(a.recv, RecvEntry{Elem: m, Count: c})
		total += c
		return true
	})
	if len(a.recv) > 1<<31-1 {
		panic("model: TraceArena receive arena overflows int32 offsets")
	}
	a.recvEnd[k] = int32(len(a.recv))
	a.recvLen[k] = int32(total)
	a.cell = k + 1
}

// Crashed reports the fail state of cell (k, i).
func (a *TraceArena) Crashed(k, i int) bool { return a.crashed[k*a.n+i] }

// CD returns the collision detector advice of cell (k, i).
func (a *TraceArena) CD(k, i int) CDAdvice { return a.cd[k*a.n+i] }

// CM returns the contention manager advice of cell (k, i).
func (a *TraceArena) CM(k, i int) CMAdvice { return a.cm[k*a.n+i] }

// Sent returns the message broadcast by cell (k, i), if any.
func (a *TraceArena) Sent(k, i int) (Message, bool) {
	c := k*a.n + i
	return a.sent[c], a.hasSent[c]
}

// RecvLen returns |recv| of cell (k, i) without materializing the multiset.
func (a *TraceArena) RecvLen(k, i int) int { return int(a.recvLen[k*a.n+i]) }

// RecvPairs returns the receive segment of cell (k, i): distinct messages
// with multiplicities, order unspecified. The slice aliases the arena — do
// not mutate or retain it across writes.
func (a *TraceArena) RecvPairs(k, i int) []RecvEntry {
	c := k*a.n + i
	lo := int32(0)
	if c > 0 {
		lo = a.recvEnd[c-1]
	}
	return a.recv[lo:a.recvEnd[c]]
}

// ViewAt materializes the View of cell (k, i): a snapshot whose Sent pointer
// and Recv multiset are freshly allocated.
func (a *TraceArena) ViewAt(k, i int) View {
	v := View{
		CD:      a.CD(k, i),
		CM:      a.CM(k, i),
		Crashed: a.Crashed(k, i),
		Recv:    multiset.New[Message](),
	}
	if m, ok := a.Sent(k, i); ok {
		msg := m
		v.Sent = &msg
	}
	v.Recv.AddPairs(a.RecvPairs(k, i))
	return v
}

// cellEqual reports EqualView of cell (k, i) against cell (ok, oi) of
// another arena without materializing either view.
func (a *TraceArena) cellEqual(k, i int, o *TraceArena, ok, oi int) bool {
	if a.Crashed(k, i) != o.Crashed(ok, oi) || a.CD(k, i) != o.CD(ok, oi) || a.CM(k, i) != o.CM(ok, oi) {
		return false
	}
	sa, hasA := a.Sent(k, i)
	sb, hasB := o.Sent(ok, oi)
	if hasA != hasB || (hasA && sa != sb) {
		return false
	}
	if a.RecvLen(k, i) != o.RecvLen(ok, oi) {
		return false
	}
	pa, pb := a.RecvPairs(k, i), o.RecvPairs(ok, oi)
	if len(pa) != len(pb) {
		return false
	}
	for _, p := range pa {
		found := false
		for _, q := range pb {
			if q.Elem == p.Elem {
				found = q.Count == p.Count
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
