package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"gsso/internal/can"
	"gsso/internal/experiment"
	"gsso/internal/landmark"
	"gsso/internal/metstream"
	"gsso/internal/netsim"
	"gsso/internal/obs"
	"gsso/internal/proximity"
	"gsso/internal/simrand"
	"gsso/internal/topology"
)

// The sim-scale workload runs the simulator's two ext-scale cells,
// tsk-large then tsk-small, at 10^4 hosts with the full scale's search
// (100 queries, 15 landmarks, 10 RTT probes per search). At 10^5 hosts
// the cells' time followed the host's memory contention, 30% apart
// between its quiet and busy periods, which no run length available here
// averages out. At 10^4 the cells still slow down by up to 60% while the
// host is busy, so their times are host-normalised by a reference
// workload (hostref.go, README.md).
const (
	simHosts       = 10_000
	simWarmupHosts = 2_000
	simSetups      = 3
	// simPasses is the least number of passes a run makes; it keeps
	// making them until --seconds is spent and reports their median.
	simPasses = 3
	// simQueryProbes is the search-phase probe count per cell: 100
	// queries × (10 hybrid + 10 ERS + 100 ERS@10x) probes.
	simQueryProbes = 12_000
)

var simKinds = []experiment.TopoKind{experiment.TSKLarge, experiment.TSKSmall}

// fingerprint is one cell's expected output: the exact float64 bits of
// the three mean stretches and the run's total metered probes.
type cellPrint struct {
	Hybrid uint64 `json:"hybrid"`
	ERS    uint64 `json:"ers"`
	ERSBig uint64 `json:"ers10x"`
	Probes int64  `json:"probes"`
}

//go:embed fingerprints.json
var fingerprintsJSON []byte

// fingerprints maps seed → cell kind → expected output, recorded from the
// code this benchmark was defined on.
func fingerprints() (map[string]map[string]cellPrint, error) {
	var fp map[string]map[string]cellPrint
	if err := json.Unmarshal(fingerprintsJSON, &fp); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return fp, nil
}

// recordFingerprints runs both cells for seeds 0..n-1 and
// prints the fingerprints as fingerprints.json content.
func recordFingerprints(n int, out string) error {
	dir, err := os.MkdirTemp(out, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fp := map[string]map[string]cellPrint{}
	for seed := uint64(0); seed < uint64(n); seed++ {
		cells := map[string]cellPrint{}
		for _, kind := range simKinds {
			c, probes, _, err := scaleCell(kind, simHosts, seed, dir)
			if err != nil {
				return err
			}
			cells[string(kind)] = printOf(c, probes)
		}
		fp[strconv.FormatUint(seed, 10)] = cells
		fmt.Fprintf(os.Stderr, "fingerprinted seed %d\n", seed)
	}
	raw, err := json.MarshalIndent(fp, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

func printOf(c experiment.ScaleCell, probes int64) cellPrint {
	return cellPrint{
		Hybrid: math.Float64bits(c.Hybrid),
		ERS:    math.Float64bits(c.ERS),
		ERSBig: math.Float64bits(c.ERSBig),
		Probes: probes,
	}
}

// runProbes reads the process-wide probe mirror for one simulator run
// label; RunScaleCell meters under "ext-scale".
func runProbes(run string) int64 {
	for _, f := range obs.Default().Snapshot().Families {
		if f.Name != "sim_probes_total" {
			continue
		}
		for _, s := range f.Series {
			if len(s.LabelValues) == 1 && s.LabelValues[0] == run {
				return int64(s.Value)
			}
		}
	}
	return 0
}

// scaleCell runs one RunScaleCell and returns its output with the probes
// it metered. Each cell starts from a collected heap with its free memory
// returned to the OS, as in a fresh process: otherwise the previous
// cell's garbage is collected, and charged, during this one.
func scaleCell(kind experiment.TopoKind, n int, seed uint64, dir string) (experiment.ScaleCell, int64, time.Duration, error) {
	debug.FreeOSMemory()
	before := runProbes("ext-scale")
	start := time.Now()
	c, err := experiment.RunScaleCell(kind, n, experiment.Full(seed), dir)
	wall := time.Since(start)
	if err != nil {
		return c, 0, wall, err
	}
	_ = os.Remove(c.Spill)
	return c, runProbes("ext-scale") - before, wall, nil
}

// checkCell compares a cell's output to its fingerprint when the seed has
// one; otherwise to the first pass of the same run (the simulator must be
// deterministic) and to basic sanity.
func checkCell(t *tally, kind experiment.TopoKind, seed uint64, got cellPrint,
	known map[string]map[string]cellPrint, first map[experiment.TopoKind]cellPrint) {
	want, ok := known[strconv.FormatUint(seed, 10)][string(kind)]
	if !ok {
		want, ok = first[kind]
	}
	if !ok {
		first[kind] = got
		sane := true
		for _, bits := range []uint64{got.Hybrid, got.ERS, got.ERSBig} {
			v := math.Float64frombits(bits)
			sane = sane && !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 1
		}
		t.check(sane && got.Probes > simQueryProbes, "%s seed %d: implausible output %+v", kind, seed, got)
		return
	}
	t.check(got == want, "%s seed %d: output %+v, want fingerprint %+v", kind, seed, got, want)
}

func runSimScale(ctx context.Context, cfg config) (map[string]metric, *tally, *spans, error) {
	known, err := fingerprints()
	if err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "spill-")
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(dir)
	if corruptOutput {
		// A fingerprint for this seed that no cell can match.
		known[strconv.FormatUint(cfg.seed, 10)] = map[string]cellPrint{
			string(experiment.TSKLarge): {}, string(experiment.TSKSmall): {},
		}
	}

	// Set-up: warm the process on the same two cells at a fifth of the
	// size, several times; the median, host-normalised like every
	// sim-scale time, is the set-up time.
	var setups, rawSetups []float64
	for i := 0; i < simSetups; i++ {
		before := hostRefMS()
		start := time.Now()
		for _, kind := range simKinds {
			if _, _, _, err := scaleCell(kind, simWarmupHosts, cfg.seed, dir); err != nil {
				return nil, nil, nil, err
			}
		}
		wall := time.Since(start)
		setups = append(setups, wall.Seconds()*refScale(before, hostRefMS()))
		rawSetups = append(rawSetups, wall.Seconds())
	}
	if cfg.trace {
		return simTraced(ctx, cfg, dir, known)
	}

	t := &tally{}
	first := map[experiment.TopoKind]cellPrint{}
	// Every time below is host-normalised (hostref.go): the cell's wall
	// time scaled by the reference workload run right before and after it.
	var passes, rawPasses, refMS []float64
	cellMS := map[experiment.TopoKind][]float64{}
	begin := time.Now()
	cpu0 := processCPU()
	steal0, total0 := cpuTicks()
	before := hostRefMS()
	for len(passes) < simPasses || time.Since(begin).Seconds() < cfg.seconds {
		if ctx.Err() != nil {
			return nil, nil, nil, ctx.Err()
		}
		var pass, raw float64
		for _, kind := range simKinds {
			c, probes, wall, err := scaleCell(kind, simHosts, cfg.seed, dir)
			after := hostRefMS()
			refMS = append(refMS, after)
			if err != nil {
				t.check(false, "%s: %v", kind, err)
				before = after
				continue
			}
			checkCell(t, kind, cfg.seed, printOf(c, probes), known, first)
			norm := wall.Seconds() * refScale(before, after)
			pass += norm
			raw += wall.Seconds()
			cellMS[kind] = append(cellMS[kind], norm*1e3)
			before = after
		}
		passes = append(passes, pass)
		rawPasses = append(rawPasses, raw)
	}
	steal1, total1 := cpuTicks()
	large, small := cellMS[experiment.TSKLarge], cellMS[experiment.TSKSmall]
	fmt.Fprintf(os.Stderr, "sim-scale: %d passes, normalised s min %.4f median %.4f, raw s min %.4f median %.4f; "+
		"reference ms min %.1f median %.1f; setups %.4f raw %.4f; process cpu %.3fs over %.3fs; host steal %.2f%%\n",
		len(passes), slices.Min(passes), median(passes), slices.Min(rawPasses), median(rawPasses),
		slices.Min(refMS), median(refMS), median(setups), median(rawSetups),
		(processCPU() - cpu0).Seconds(), time.Since(begin).Seconds(),
		100*float64(steal1-steal0)/float64(max(total1-total0, 1)))
	return map[string]metric{
		"setup_s":     sec(median(setups)),
		"run_s":       sec(median(passes)),
		"peak_rss_mb": mb(selfPeakRSSMB()),
		"ok_ratio":    ratio(t.okRatio()),
		"op1_ms":      ms(median(large)),
		"op2_ms":      ms(median(small)),
	}, t, nil, nil
}

// simTraced runs both cells once through RunScaleCell (untraced) and
// once through a replay of RunScaleCell's steps with a span around each
// call into a layer. The replay must reproduce RunScaleCell's stretch
// values bit for bit; its spans give the per-layer metrics, and the
// time it took against RunScaleCell's gives the tracing overhead.
func simTraced(ctx context.Context, cfg config, dir string, known map[string]map[string]cellPrint) (map[string]metric, *tally, *spans, error) {
	t := &tally{}
	sp := newSpans()
	m := map[string]metric{}
	first := map[experiment.TopoKind]cellPrint{}
	var plain, traced time.Duration
	for i, kind := range simKinds {
		if ctx.Err() != nil {
			return nil, nil, nil, ctx.Err()
		}
		c, probes, wall, err := scaleCell(kind, simHosts, cfg.seed, dir)
		if err != nil {
			return nil, nil, nil, err
		}
		checkCell(t, kind, cfg.seed, printOf(c, probes), known, first)
		plain += wall

		before := hostRefMS()
		rep, err := replayCell(kind, simHosts, cfg.seed, dir, sp, uint64(i+1))
		if err != nil {
			return nil, nil, nil, err
		}
		after := hostRefMS()
		traced += rep.wall
		t.check(rep.hybrid == c.Hybrid && rep.ers == c.ERS && rep.ersBig == c.ERSBig,
			"%s replay stretch (%v %v %v) differs from RunScaleCell (%v %v %v)",
			kind, rep.hybrid, rep.ers, rep.ersBig, c.Hybrid, c.ERS, c.ERSBig)
		t.check(rep.queryProbes == simQueryProbes, "%s: search phase metered %d probes, want %d",
			kind, rep.queryProbes, simQueryProbes)

		k := "." + string(kind)
		m["sim.cell_s"+k] = sec(rep.wall.Seconds())
		m["topology.generate_s"+k] = sec(sp.total("topology.generate" + k))
		m["topology.latency_ns"+k] = ns(rep.latencyNS)
		m["landmark.space_s"+k] = sec(sp.total("landmark.space" + k))
		m["proximity.build_index_s"+k] = sec(sp.total("proximity.build_index" + k))
		m["can.join_s"+k] = sec(sp.total("can.join" + k))
		m["proximity.search_ms"+k] = ms(1e3 * (sp.total("proximity.search_hybrid"+k) + sp.total("proximity.ers_search"+k)))
		m["proximity.stretch_s"+k] = sec(sp.total("proximity.stretch" + k))
		m["proximity.stretch_cpu_s"+k] = sec(rep.stretchCPU.Seconds())
		m["host.steal_frac"+k] = ratio(rep.stealFrac)
		m["host.ref_ms"+k] = ms((before + after) / 2)
		m["metstream.aggregate_ms"+k] = ms(1e3 * sp.total("metstream.aggregate"+k))
		m["netsim.probes"+k] = count(float64(rep.queryProbes))
		m["runtime.gc_pause_ms"+k] = ms(rep.gcPauseMS)
		m["runtime.heap_peak_mb"+k] = mb(rep.heapPeakMB)
	}
	m["trace.overhead_frac"] = ratio(traced.Seconds()/plain.Seconds() - 1)
	return m, t, sp, nil
}

// replayed is one replayed cell's outputs and layer readings.
type replayed struct {
	hybrid, ers, ersBig float64
	queryProbes         int64
	latencyNS           float64
	gcPauseMS           float64
	heapPeakMB          float64
	stretchCPU          time.Duration
	stealFrac           float64
	wall                time.Duration
}

// replayCell repeats experiment.RunScaleCell's steps call for call —
// same random streams, same order, same metric stream — with a span
// around every call into a layer.
func replayCell(kind experiment.TopoKind, targetN int, seed uint64, dir string, sp *spans, trace uint64) (replayed, error) {
	var out replayed
	sc := experiment.Full(seed)
	k := "." + string(kind)
	model := topology.GTITMLatency()
	var spec topology.Spec
	switch kind {
	case experiment.TSKLarge:
		spec = topology.TSKLarge(model)
	case experiment.TSKSmall:
		spec = topology.TSKSmall(model)
	}
	spec = spec.SizedWide(targetN)

	debug.FreeOSMemory()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	steal0, total0 := cpuTicks()
	stopHeap := sampleHeapPeak(&out.heapPeakMB)
	defer stopHeap()
	start := time.Now()
	cell := sp.begin("sim.cell"+k, trace, 0)

	rng := simrand.New(sc.Seed).Split(fmt.Sprintf("ext-scale/%s/%d", kind, targetN))
	s := sp.begin("topology.generate"+k, trace, cell.id)
	net, err := topology.Generate(spec, rng.Split("topo"))
	s.end()
	if err != nil {
		return out, err
	}
	env := netsim.NewRun(net, "perfbench-replay")
	hosts := net.StubHosts()

	s = sp.begin("landmark.space"+k, trace, cell.id)
	set, err := landmark.Choose(net, sc.Landmarks, rng.Split("landmarks"))
	if err != nil {
		return out, err
	}
	space, err := landmark.NewSpace(set, 3, 6,
		landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("est"), 32)))
	s.end()
	if err != nil {
		return out, err
	}
	s = sp.begin("proximity.build_index"+k, trace, cell.id)
	index, err := proximity.BuildIndex(env, space, hosts)
	s.end()
	if err != nil {
		return out, err
	}
	overlay, err := can.New(2)
	if err != nil {
		return out, err
	}
	joinRNG := rng.Split("join")
	s = sp.begin("can.join"+k, trace, cell.id)
	for _, h := range hosts {
		if _, err := overlay.JoinRandom(h, joinRNG); err != nil {
			return out, err
		}
	}
	s.end()
	ers, err := proximity.NewERS(overlay)
	if err != nil {
		return out, err
	}

	qRNG := rng.Split("queries")
	qIdx := qRNG.Sample(len(hosts), sc.NNQueries)
	spill := filepath.Join(dir, fmt.Sprintf("replay_%s_%d.metrics", kind, targetN))
	defer os.Remove(spill)
	w, err := metstream.Create(spill)
	if err != nil {
		return out, err
	}
	record := func(i int, key string, v float64) error {
		if math.IsInf(v, 1) {
			return nil
		}
		return w.Append(uint64(i), key, v)
	}
	// Stretch's CPU time, read from this thread's clock, tells a slower
	// sweep that did more work per call from one that was descheduled.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	stretch := func(host, found topology.NodeID) float64 {
		s := sp.begin("proximity.stretch"+k, trace, cell.id)
		cpu0 := threadCPU()
		v := proximity.Stretch(net, host, found, hosts)
		out.stretchCPU += threadCPU() - cpu0
		s.end()
		return v
	}
	probesBefore := env.Probes()
	for i, q := range qIdx {
		host := hosts[q]
		s := sp.begin("proximity.search_hybrid"+k, trace, cell.id)
		hres := index.SearchHybrid(env, host, sc.RTTs)
		s.end()
		if err := record(i, "hybrid", stretch(host, hres.Found)); err != nil {
			return out, err
		}
		s = sp.begin("proximity.ers_search"+k, trace, cell.id)
		eres := ers.Search(env, host, sc.RTTs)
		s.end()
		if err := record(i, "ers", stretch(host, eres.Found)); err != nil {
			return out, err
		}
		s = sp.begin("proximity.ers_search"+k, trace, cell.id)
		ebig := ers.Search(env, host, 10*sc.RTTs)
		s.end()
		if err := record(i, "ers10x", stretch(host, ebig.Found)); err != nil {
			return out, err
		}
	}
	out.queryProbes = env.Probes() - probesBefore
	if err := w.Close(); err != nil {
		return out, err
	}
	s = sp.begin("metstream.aggregate"+k, trace, cell.id)
	aggs, err := metstream.Aggregate(spill)
	s.end()
	if err != nil {
		return out, err
	}
	out.hybrid, out.ers, out.ersBig = aggs["hybrid"].Mean(), aggs["ers"].Mean(), aggs["ers10x"].Mean()
	cell.end()
	out.wall = time.Since(start)
	stopHeap() // settles out.heapPeakMB

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if steal1, total1 := cpuTicks(); total1 > total0 {
		out.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	out.latencyNS = latencyProbe(net, hosts, seed)
	return out, nil
}

// latencyProbe times Network.Latency in Stretch's access pattern — one
// query host against every host — for a fixed seeded sample of query
// hosts, and returns the mean ns per call.
func latencyProbe(net *topology.Network, hosts []topology.NodeID, seed uint64) float64 {
	rng := simrand.New(seed).Split("perfbench/latency")
	sample := rng.Sample(len(hosts), 8)
	sink := 0.0
	start := time.Now()
	for _, q := range sample {
		for _, h := range hosts {
			sink += net.Latency(hosts[q], h)
		}
	}
	elapsed := time.Since(start)
	if math.IsNaN(sink) {
		fmt.Fprintln(os.Stderr, "sim-scale: latency probe saw NaN")
	}
	return float64(elapsed.Nanoseconds()) / float64(len(sample)*len(hosts))
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTicks reads the host's stolen and total CPU time from /proc/stat,
// in clock ticks: time the hypervisor gave this machine's virtual CPUs
// to someone else shows up as steal.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sampleHeapPeak polls the live heap every few milliseconds until the
// returned stop function is called, leaving the peak in *peakMB.
func sampleHeapPeak(peakMB *float64) (stop func()) {
	const name = "/memory/classes/heap/objects:bytes"
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sample := []metrics.Sample{{Name: name}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = math.Max(peak, float64(sample[0].Value.Uint64())/(1<<20))
			}
			select {
			case <-done:
				*peakMB = peak
				return
			case <-tick.C:
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
