package engine

// shardPool runs one fixed function over contiguous index shards on a set
// of persistent worker goroutines. The round step runs each per-process
// phase through it (runState.runPhase): the pool is created once per run
// (so round dispatch allocates nothing), Run blocks until every shard
// completes (the round barrier), and the shard boundaries depend only on
// (n, workers), so with per-index-independent phases the sharded rounds
// are byte-identical to sequential ones at any worker count.
//
// A panic inside fn (an automaton panicking mid-delivery) does not kill the
// worker goroutine or deadlock the barrier: the worker recovers it, the
// barrier still completes, and Run re-raises the panic as a *PanicError on
// the dispatching goroutine — where the sweep layer's per-trial recovery
// quarantines it like any same-goroutine panic.
type shardPool struct {
	fn   func(lo, hi int)
	req  []chan shard
	done chan *PanicError

	// runs and shards count barrier cycles and dispatched shard calls.
	// They are owned by the dispatching goroutine (Run is single-caller by
	// contract), so plain fields suffice; the engine publishes them to
	// telemetry at run end rather than paying atomics per round.
	runs   uint64
	shards uint64
}

type shard struct{ lo, hi int }

// newShardPool starts `workers` goroutines that each execute fn over the
// shards Run hands them. fn must be safe to call concurrently on disjoint
// index ranges. Call Close to release the goroutines.
func newShardPool(workers int, fn func(lo, hi int)) *shardPool {
	if workers < 1 {
		workers = 1
	}
	p := &shardPool{
		fn:   fn,
		req:  make([]chan shard, workers),
		done: make(chan *PanicError, workers),
	}
	for w := range p.req {
		c := make(chan shard)
		p.req[w] = c
		go func() {
			for s := range c {
				p.done <- p.call(s)
			}
		}()
	}
	return p
}

// call runs one shard, converting a panic into its barrier message. A nil
// return is the common case and sends no allocation over the channel.
func (p *shardPool) call(s shard) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = NewPanicError(v)
		}
	}()
	p.fn(s.lo, s.hi)
	return nil
}

// Run splits [0, n) into up to len(workers) contiguous shards (remainder
// spread over the first shards, so the split is a pure function of n and
// the worker count), dispatches them, and blocks until all complete. If any
// shard panicked, Run re-panics with the first worker's *PanicError after
// the barrier — every other shard has finished, so no worker is still
// touching shared round state when the panic unwinds.
func (p *shardPool) Run(n int) {
	if n <= 0 {
		return
	}
	workers := len(p.req)
	base, rem := n/workers, n%workers
	lo, dispatched := 0, 0
	for w := 0; w < workers && lo < n; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		if hi == lo {
			continue
		}
		p.req[w] <- shard{lo, hi}
		dispatched++
		lo = hi
	}
	p.runs++
	p.shards += uint64(dispatched)
	var panicked *PanicError
	for i := 0; i < dispatched; i++ {
		if pe := <-p.done; pe != nil && panicked == nil {
			panicked = pe
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// Stats reports the barrier cycles run and shard calls dispatched so far.
// Like Run, it must be called from the dispatching goroutine.
func (p *shardPool) Stats() (runs, shards uint64) {
	return p.runs, p.shards
}

// Close shuts the worker goroutines down. The pool must be idle.
func (p *shardPool) Close() {
	for _, c := range p.req {
		close(c)
	}
}
