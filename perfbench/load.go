package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load comes from this one process. At most inflight requests are
// outstanding at once, whatever the loop; the number is fixed, not read
// from the host, so every host and commit faces the same load shape.
const inflight = 2

// outcome is one finished operation. Open-loop latency runs from when the
// operation was due to be sent, so a stall also charges the requests that
// queued behind it; lag is how late the generator actually sent it.
type outcome struct {
	kind int
	lat  time.Duration
	lag  time.Duration
	err  error
	// scale host-normalises lat: refNominalMS over the reference
	// workload's time around the operation's leg (hostref.go).
	scale float64
}

// poisson lays out n arrival offsets of a Poisson process at rate per
// second.
func poisson(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends operation i at start+due[i], regardless of how earlier
// ones fare, keeping at most inflight outstanding; do(i) performs it.
func openLoop(ctx context.Context, due []time.Duration, kinds []int, do func(i int) error) []outcome {
	out := make([]outcome, len(due))
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	// The runtime's timers wake an idle process up to a millisecond late
	// on Linux; a dedicated thread in nanosleep wakes within tens of µs,
	// so the generator sends close to each arrival's due time. That thread
	// keeps its P while it sleeps, until the runtime retakes it; a second
	// P lets the requests' goroutines run meanwhile. The closed loop keeps
	// one P per CPU, so idle Ps do not spin on the CPU the fleet needs.
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(procs + 1)
	defer runtime.GOMAXPROCS(procs)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	sent := len(due)
	for i := range due {
		at := start.Add(due[i])
		sleepUntil(ctx, at)
		if ctx.Err() != nil {
			sent = i
			break
		}
		sem <- struct{}{}
		sentAt := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := do(i)
			out[i] = outcome{kind: kinds[i], lat: time.Since(at), lag: sentAt.Sub(at), err: err}
			<-sem
		}(i)
	}
	wg.Wait()
	return out[:sent]
}

// sleepUntil blocks the calling thread until at or until ctx ends.
func sleepUntil(ctx context.Context, at time.Time) {
	const slice = 50 * time.Millisecond // bounds the wait for ctx
	for ctx.Err() == nil {
		d := time.Until(at)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(min(d, slice).Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// closedLoop runs inflight workers, each sending its next operation as
// soon as its previous one completes, for d; operations are numbered from
// first. It returns the wall time of every full group of batch
// consecutive completions and every outcome.
func closedLoop(ctx context.Context, d time.Duration, batch, first int, kindOf func(i int) int, do func(i int) error) ([]float64, []outcome) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		done    []time.Time
		results []outcome
		wg      sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(d)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(stop) {
				i := first + int(next.Add(1)-1)
				t0 := time.Now()
				err := do(i)
				end := time.Now()
				mu.Lock()
				done = append(done, end)
				results = append(results, outcome{kind: kindOf(i), lat: end.Sub(t0), err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	var batches []float64
	prev := start
	for i := batch - 1; i < len(done); i += batch {
		batches = append(batches, done[i].Sub(prev).Seconds())
		prev = done[i]
	}
	return batches, results
}

// latencies returns the sorted latencies, in ms, of one kind's outcomes,
// host-normalised or raw.
func latencies(outs []outcome, kind int, normalise bool) []float64 {
	var v []float64
	for _, o := range outs {
		if o.kind == kind {
			lat := float64(o.lat.Nanoseconds()) / 1e6
			if normalise {
				lat *= o.scale
			}
			v = append(v, lat)
		}
	}
	sort.Float64s(v)
	return v
}

// lags returns the sorted generator lags, in ms.
func lags(outs []outcome) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = float64(o.lag.Nanoseconds()) / 1e6
	}
	sort.Float64s(v)
	return v
}
