package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adhocconsensus/internal/seedstream"
	"adhocconsensus/internal/telemetry"
)

// DeliveryWorkersAuto, set as Config.DeliveryWorkers, asks the engine to
// pick the worker count from the host calibration (Calibrate) instead of a
// fixed number.
const DeliveryWorkersAuto = -1

// Calibration is the measured parallel-delivery profile of this host: the
// worker count worth running, the smallest system for which the sharded
// round beats the sequential one, and the raw measurements behind them.
type Calibration struct {
	// Workers is the delivery worker count DeliveryWorkersAuto resolves to.
	Workers int
	// MinProcs is the auto-off threshold DeliveryMinProcs<=0 resolves to:
	// the system size where the sharded row work saved first exceeds the
	// per-round barrier cost.
	MinProcs int
	// BarrierNs is the measured cost of one dispatch+join cycle of a
	// Workers-wide shardPool, in nanoseconds.
	BarrierNs float64
	// StepNs is the measured cost of one receiver's share of a round
	// (a counter-stream loss row), in nanoseconds.
	StepNs float64
}

var (
	calibrateOnce sync.Once
	calibration   Calibration

	// calibrationOverride pins the calibration for tests, so threshold
	// assertions do not depend on the host the tests run on.
	calibrationOverride atomic.Pointer[Calibration]
)

// Calibrate returns this host's parallel-delivery profile, measuring it on
// first use (well under a millisecond) and caching the result for the
// process lifetime. Single-threaded hosts calibrate to the sequential path
// with the historical DefaultDeliveryMinProcs threshold.
func Calibrate() Calibration {
	if o := calibrationOverride.Load(); o != nil {
		publishCalibration(*o)
		return *o
	}
	calibrateOnce.Do(func() { calibration = measureCalibration() })
	publishCalibration(calibration)
	return calibration
}

// publishCalibration mirrors the effective calibration into telemetry
// gauges. Setting a gauge to its current value is idempotent and
// allocation-free, so republishing on every Calibrate call is cheap and
// keeps the gauges correct across test overrides.
func publishCalibration(c Calibration) {
	em := telemetry.Engine()
	em.CalWorkers.Set(int64(c.Workers))
	em.CalMinProcs.Set(int64(c.MinProcs))
	em.CalBarrierNs.Set(int64(c.BarrierNs))
	em.CalStepNs.Set(int64(c.StepNs))
}

func measureCalibration() Calibration {
	maxProcs := runtime.GOMAXPROCS(0)
	if maxProcs < 2 {
		return Calibration{Workers: 1, MinProcs: DefaultDeliveryMinProcs}
	}
	workers := maxProcs
	if workers > 8 {
		// Past 8 workers the barrier grows faster than the row work
		// shrinks for every n in the benchmark matrix.
		workers = 8
	}
	barrier := measureBarrier(workers)
	step := measureStep()
	// The sharded round pays the barrier once to save (1-1/w) of the row
	// work: parallel wins when n*step*(1-1/w) > barrier. Solve for n and
	// clamp to a sane range against measurement noise.
	minProcs := DefaultDeliveryMinProcs
	if step > 0 {
		minProcs = int(barrier / (step * (1 - 1/float64(workers))))
	}
	if minProcs < 16 {
		minProcs = 16
	}
	if minProcs > 4096 {
		minProcs = 4096
	}
	return Calibration{Workers: workers, MinProcs: minProcs, BarrierNs: barrier, StepNs: step}
}

// measureBarrier times an empty dispatch+join cycle of a workers-wide pool.
func measureBarrier(workers int) float64 {
	pool := newShardPool(workers, func(int, int, int) {})
	defer pool.Close()
	for i := 0; i < 8; i++ {
		pool.Run(workers) // warm up scheduling and the worker goroutines
	}
	const reps = 64
	start := time.Now()
	for i := 0; i < reps; i++ {
		pool.Run(workers)
	}
	return float64(time.Since(start).Nanoseconds()) / reps
}

// calibrationSink keeps the step measurement's work observable.
var calibrationSink atomic.Uint64

// measureStep times one receiver's slice of a synthetic round: a
// counter-stream loss row over a typical sender count.
func measureStep() float64 {
	const n, k, reps = 1024, 8, 16
	var acc uint64
	start := time.Now()
	for rep := 0; rep < reps; rep++ {
		for i := 0; i < n; i++ {
			key := seedstream.Key(int64(rep), rep, uint64(i))
			for j := 0; j < k; j++ {
				if seedstream.Float64At(key, j) < 0.5 {
					acc++
				}
			}
		}
	}
	elapsed := float64(time.Since(start).Nanoseconds())
	calibrationSink.Store(acc)
	return elapsed / (n * reps)
}
