package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"gsso/internal/obs"
	"gsso/internal/wire"
)

// Operation kinds of the wire workloads. op1 and op2 are the workload's
// two measured operations; the probe kinds run only in the traced half
// of a traced run, beside them, to time single layers under the same
// load.
const (
	kindOp1 = iota
	kindOp2
	kindPing
	kindMeasure
)

// Each wire run splits its measured time between the open loop and the
// closed-loop saturation phase, in up to maxCycles alternating legs of
// each.
const (
	openShare = 0.75
	maxCycles = 6
)

// latencyQuantile is the open-loop latency quantile reported as op1_ms
// and op2_ms. Below it are the requests that waited for no other: its
// spread over ten runs was a third to a half of the median's, whose
// requests also queue behind each other and behind the host's stalls
// (README.md).
const latencyQuantile = 0.25

// wireLoad is one wire workload.
type wireLoad interface {
	// setup readies a freshly booted fleet (preload, publish).
	setup(f *fleet, gen *wire.Node) error
	// kind draws the kind of operation i from its own random stream.
	kind(rng *rand.Rand) int
	// do performs operation i of the given kind, recording spans into sp
	// (nil when untraced). It returns an error for a failed or wrong
	// operation; checks too costly to run inline are deferred to verify.
	do(rng *rand.Rand, i, kind int, sp *spans) error
	// verify runs the deferred output checks, failing every operation
	// whose output was wrong; before and after are the fleet's counters
	// around the measured phases.
	verify(t *tally, before, after []obs.Snapshot)
}

// wireParams fixes one wire workload's load.
type wireParams struct {
	name     string
	rate     float64 // open-loop arrivals per second, fixed for every commit
	batch    int     // closed-loop operations per timed batch
	probePct float64 // share of traced-half arrivals that are layer probes
	probes   []int   // probe kinds used in the traced half
}

// opRNG is operation i's own random stream: every operation's inputs
// depend only on the seed and its index, whichever loop sends it.
func opRNG(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i)))
}

// closedBase offsets closed-loop operation indices so their streams
// never overlap the open loop's.
const closedBase = 1 << 40

func runWire(ctx context.Context, cfg config, p wireParams, newLoad func(cfg config) wireLoad) (map[string]metric, *tally, *spans, error) {
	t := &tally{}
	var (
		setups []float64
		f      *fleet
		gen    *wire.Node
		load   wireLoad
	)
	stopAll := func() {
		if gen != nil {
			_ = gen.Close()
		}
		if f != nil {
			f.stop()
		}
		gen, f = nil, nil
	}
	defer stopAll()
	for k := 0; k < fleetSetups; k++ {
		if ctx.Err() != nil {
			return nil, nil, nil, ctx.Err()
		}
		stopAll()
		start := time.Now()
		var err error
		if f, err = bootFleet(cfg, p.name); err != nil {
			return nil, nil, nil, err
		}
		if gen, err = f.generator(); err != nil {
			return nil, nil, nil, err
		}
		load = newLoad(cfg)
		if err := load.setup(f, gen); err != nil {
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The run alternates open-loop and closed-loop legs, so each loop
	// samples the whole run rather than one stretch of it: a shared
	// host's speed drifts over seconds.
	cycles := max(1, min(maxCycles, int(cfg.seconds/5)))
	openDur := cfg.seconds * openShare
	n := int(p.rate * openDur)
	due := poisson(rand.New(rand.NewPCG(cfg.seed, 0x0BE17)), p.rate, n)
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = load.kind(opRNG(cfg.seed, i))
	}
	// cuts[c] is the first operation of open leg c.
	cuts := make([]int, cycles+1)
	for c := 1; c < cycles; c++ {
		end := time.Duration(float64(c) / float64(cycles) * openDur * float64(time.Second))
		cuts[c] = sort.Search(n, func(i int) bool { return due[i] >= end })
	}
	cuts[cycles] = n
	// A traced run times layers in the second half of the open legs only,
	// so the first half's untraced latencies measure the overhead.
	var sp *spans
	tracedFrom := n
	if cfg.trace {
		sp = newSpans()
		tracedFrom = cuts[cycles/2]
		pick := rand.New(rand.NewPCG(cfg.seed, 0x9E0BE))
		for i := tracedFrom; i < n; i++ {
			if pick.Float64() < p.probePct {
				kinds[i] = p.probes[pick.IntN(len(p.probes))]
			}
		}
	}

	before, err := f.stats()
	if err != nil {
		return nil, nil, nil, err
	}
	leg := func(from, to int, rec *spans) []outcome {
		var base time.Duration
		if from > 0 {
			base = due[from-1]
		}
		rebased := make([]time.Duration, to-from)
		for j := range rebased {
			rebased[j] = due[from+j] - base
		}
		return openLoop(ctx, rebased, kinds[from:to], func(j int) error {
			rng := opRNG(cfg.seed, from+j)
			load.kind(rng) // the same draws as the schedule made
			return load.do(rng, from+j, kinds[from+j], rec)
		})
	}
	closedDur := time.Duration(cfg.seconds * (1 - openShare) / float64(cycles) * float64(time.Second))
	closedKind := func(i int) int { return load.kind(opRNG(cfg.seed, i)) }
	closedDo := func(i int) error {
		rng := opRNG(cfg.seed, i)
		return load.do(rng, i, load.kind(rng), nil)
	}
	// Each leg is bracketed by runs of the host reference (hostref.go),
	// which scale its end-to-end times; the fleet is idle meanwhile.
	scaled := func(outs []outcome, before, after float64) float64 {
		k := refScale(before, after)
		for i := range outs {
			outs[i].scale = k
		}
		return k
	}
	var (
		open, closed        []outcome
		batches, rawBatches []float64
		nextClosed          = closedBase
		// tracedDiff sums the fleet's counters over the traced open legs.
		tracedDiff = map[string]float64{}
		tracedWall time.Duration
	)
	ref := hostRefMS()
	for c := 0; c < cycles && ctx.Err() == nil; c++ {
		from, to := cuts[c], cuts[c+1]
		var outs []outcome
		if from < tracedFrom {
			outs = leg(from, to, nil)
		} else {
			s0, err := f.stats()
			if err != nil {
				return nil, nil, nil, err
			}
			start := time.Now()
			outs = leg(from, to, sp)
			tracedWall += time.Since(start)
			s1, err := f.stats()
			if err != nil {
				return nil, nil, nil, err
			}
			c0, c1 := fleetCounters(s0), fleetCounters(s1)
			for k := range c1 {
				tracedDiff[k] += c1[k] - c0[k]
			}
		}
		mid := hostRefMS()
		scaled(outs, ref, mid)
		open = append(open, outs...)
		b, outs := closedLoop(ctx, closedDur, p.batch, nextClosed, closedKind, closedDo)
		ref = hostRefMS()
		k := scaled(outs, mid, ref)
		nextClosed += len(outs)
		for _, s := range b {
			batches = append(batches, s*k)
		}
		rawBatches = append(rawBatches, b...)
		closed = append(closed, outs...)
	}
	if ctx.Err() != nil {
		return nil, nil, nil, ctx.Err()
	}
	after, err := f.stats()
	if err != nil {
		return nil, nil, nil, err
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return nil, nil, nil, err
	}
	var genSnap obs.Snapshot
	if cfg.trace {
		genSnap = gen.Registry().Snapshot()
	}
	stopAll()

	for _, o := range append(append([]outcome(nil), open...), closed...) {
		t.attempted++
		if o.err != nil {
			t.fail("%s op kind %d: %v", p.name, o.kind, o.err)
		}
	}
	load.verify(t, before, after)
	if len(batches) < 3 {
		t.fail("%s: only %d closed-loop batches of %d ops completed", p.name, len(batches), p.batch)
	}

	untracedOpen := open[:min(tracedFrom, len(open))]
	// Raw latencies and batch times for the log and the per-layer
	// metrics; host-normalised ones for the end-to-end metrics.
	op1 := latencies(untracedOpen, kindOp1, false)
	op2 := latencies(untracedOpen, kindOp2, false)
	lag := lags(open)
	sorted := append([]float64(nil), rawBatches...)
	sort.Float64s(sorted)
	sortedNorm := append([]float64(nil), batches...)
	sort.Float64s(sortedNorm)
	fmt.Fprintf(os.Stderr, "%s: open loop %d ops at %.0f/s, lag p50 %.3fms p99 %.3fms; closed loop %d batches of %d ops, s p10 %.4f p25 %.4f p50 %.4f, normalised p25 %.4f\n",
		p.name, len(open), p.rate, quantile(lag, 0.5), quantile(lag, 0.99), len(batches), p.batch,
		quantile(sorted, 0.1), quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sortedNorm, 0.25))
	norm := [][]float64{latencies(untracedOpen, kindOp1, true), latencies(untracedOpen, kindOp2, true)}
	for i, v := range [][]float64{op1, op2} {
		fmt.Fprintf(os.Stderr, "%s: op%d %d samples, p25 %.3fms p50 %.3fms p90 %.3fms p99 %.3fms, normalised p25 %.3fms\n",
			p.name, i+1, len(v), quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99),
			quantile(norm[i], 0.25))
	}

	if !cfg.trace {
		return map[string]metric{
			"setup_s":     sec(median(setups)),
			"run_s":       sec(quantile(sortedNorm, 0.25)),
			"peak_rss_mb": mb(rss),
			"ok_ratio":    ratio(t.okRatio()),
			"op1_ms":      ms(quantile(norm[0], latencyQuantile)),
			"op2_ms":      ms(quantile(norm[1], latencyQuantile)),
		}, t, nil, nil
	}

	tracedOpen := open[min(tracedFrom, len(open)):]
	m := map[string]metric{
		"gen.lag_ms_p99":      ms(quantile(lag, 0.99)),
		"gen.op1_p99_ms":      ms(quantile(op1, 0.99)),
		"gen.op2_p99_ms":      ms(quantile(op2, 0.99)),
		"gen.sat_ops":         perSec(float64(p.batch) / quantile(sorted, 0.25)),
		"trace.overhead_frac": ratio(quantile(latencies(tracedOpen, kindOp1, false), 0.5)/quantile(op1, 0.5) - 1),
	}
	serverLayers(m, sp, tracedDiff, after, tracedWall)
	clientLayers(m, sp, genSnap)
	if err := codecLayers(m); err != nil {
		return nil, nil, nil, err
	}
	return m, t, sp, nil
}

// serverTypes are the request types the fleet's counters are read for.
var serverTypes = []wire.MsgType{wire.MsgPing, wire.MsgStore, wire.MsgQuery, wire.MsgPublishBatch, wire.MsgStats}

// fleetCounters flattens the fleet-wide server counters a traced run
// diffs: time spent serving and requests served, requests per type, and
// error replies.
func fleetCounters(snaps []obs.Snapshot) map[string]float64 {
	sum, n := serveTotals(snaps)
	c := map[string]float64{"serve_ms": sum, "served": float64(n), "errors": 0}
	for _, typ := range serverTypes {
		c["requests."+string(typ)] = fleetTotal(snaps, "wire_requests_total", string(typ))
		c["errors"] += fleetTotal(snaps, "wire_request_errors_total", string(typ))
	}
	return c
}

// serverLayers derives the server-side per-layer metrics from the fleet
// counters diffed over the traced open legs, which took window.
func serverLayers(m map[string]metric, sp *spans, diff map[string]float64, last []obs.Snapshot, window time.Duration) {
	serveMS := diff["serve_ms"] / max(diff["served"], 1)
	m["wire.store.serve_us"] = us(serveMS * 1e3)
	m["wire.server.busy_frac"] = ratio(diff["serve_ms"] / 1e3 / (window.Seconds() * fleetNodes))
	records := 0.0
	for _, s := range last {
		records += seriesValue(s, "wire_records")
	}
	m["wire.store.records"] = count(records / float64(len(last)))
	for _, typ := range serverTypes {
		m["wire.server.requests."+string(typ)] = count(diff["requests."+string(typ)])
	}
	m["wire.server.errors"] = count(diff["errors"])
	ping := sp.durations("wire.transport.ping")
	query := sp.durations("wire.transport.query")
	m["wire.transport.ping_us.p50"] = us(1e6 * quantile(ping, 0.5))
	m["wire.transport.ping_us.p99"] = us(1e6 * quantile(ping, 0.99))
	m["wire.transport.query_ms"] = ms(1e3 * quantile(query, 0.5))
	m["wire.transport.batch_ms"] = ms(1e3 * quantile(sp.durations("wire.transport.batch"), 0.5))
	// The fleet's serve histogram has no type label; the other requests
	// take microseconds beside a query's scan, so its whole sum is
	// charged to the queries.
	if queries := diff["requests."+string(wire.MsgQuery)]; len(query) > 0 && len(ping) > 0 && queries > 0 {
		m["wire.server.wait_ms"] = ms(1e3*(mean(query)-quantile(ping, 0.5)) - diff["serve_ms"]/queries)
	}
}

// clientLayers reads the generator node's own layers: its client calls'
// spans and its connection pool counters.
func clientLayers(m map[string]metric, sp *spans, gen obs.Snapshot) {
	m["wire.client.measure_us"] = us(1e6 * quantile(sp.durations("wire.client.measure"), 0.5))
	m["wire.client.find_nearest_ms"] = ms(1e3 * quantile(sp.durations("wire.client.find_nearest"), 0.5))
	m["wire.client.publish_ms"] = ms(1e3 * quantile(sp.durations("wire.client.publish"), 0.5))
	dials := seriesValue(gen, "wire_conn_dials_total")
	reuse := seriesValue(gen, "wire_conn_reuse_total")
	m["wire.transport.dials"] = count(dials)
	if dials+reuse > 0 {
		m["wire.transport.reuse_ratio"] = ratio(reuse / (dials + reuse))
	}
}
