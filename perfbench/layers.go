package main

import (
	"fmt"
	"math"
)

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units. Each workload defines what its op1 and op2 are (README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"op1_ms", "ms"},
	{"op2_ms", "ms"},
}

// perLayer lists the per-layer metrics every traced run reports. A layer
// a workload does not exercise reads 0.
func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, k := range simKinds {
		s := "." + string(k)
		add("sim.cell_s"+s, "s")
		add("topology.generate_s"+s, "s")
		add("topology.latency_ns"+s, "ns")
		add("landmark.space_s"+s, "s")
		add("proximity.build_index_s"+s, "s")
		add("can.join_s"+s, "s")
		add("proximity.search_ms"+s, "ms")
		add("proximity.stretch_s"+s, "s")
		add("proximity.stretch_cpu_s"+s, "s")
		add("host.steal_frac"+s, "ratio")
		add("host.ref_ms"+s, "ms")
		add("metstream.aggregate_ms"+s, "ms")
		add("netsim.probes"+s, "count")
		add("runtime.gc_pause_ms"+s, "ms")
		add("runtime.heap_peak_mb"+s, "MB")
	}
	add("wire.store.serve_us", "us")
	add("wire.store.records", "count")
	add("wire.server.busy_frac", "ratio")
	add("wire.server.wait_ms", "ms")
	add("wire.server.errors", "count")
	for _, t := range []string{"ping", "store", "query", "publish-batch", "stats"} {
		add("wire.server.requests."+t, "count")
	}
	add("wire.transport.query_ms", "ms")
	add("wire.transport.batch_ms", "ms")
	add("wire.transport.ping_us.p50", "us")
	add("wire.transport.ping_us.p99", "us")
	add("wire.transport.dials", "count")
	add("wire.transport.reuse_ratio", "ratio")
	add("wire.client.measure_us", "us")
	add("wire.client.find_nearest_ms", "ms")
	add("wire.client.publish_ms", "ms")
	for _, shape := range []string{"ping", "store", "records24", "batch16"} {
		add("wire.codec.encode_ns."+shape, "ns")
		add("wire.codec.decode_ns."+shape, "ns")
		add("wire.codec.bytes."+shape, "B")
		add("wire.codec.allocs."+shape, "count")
	}
	add("gen.lag_ms_p99", "ms")
	add("gen.op1_p99_ms", "ms")
	add("gen.op2_p99_ms", "ms")
	add("gen.sat_ops", "1/s")
	add("trace.overhead_frac", "ratio")
	return out
}

// complete checks a run's metrics against the list it must report:
// every listed name present with its unit, nothing unlisted, every value
// finite. A traced run's unexercised layers (absent or with no samples)
// read 0; an end-to-end metric may not be missing.
func complete(m map[string]metric, traced bool) (map[string]metric, error) {
	want := endToEnd
	if traced {
		want = perLayer()
	}
	out := make(map[string]metric, len(want))
	for _, w := range want {
		v, ok := m[w.name]
		bad := !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0)
		switch {
		case bad && traced:
			v = metric{Value: 0, Unit: w.unit}
		case bad:
			return nil, fmt.Errorf("end-to-end metric %s missing or not finite (%v)", w.name, v.Value)
		case v.Unit != w.unit:
			return nil, fmt.Errorf("metric %s in %s, want %s", w.name, v.Unit, w.unit)
		}
		out[w.name] = v
	}
	if len(m) > len(out) {
		for name := range m {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not in the benchmark's list", name)
			}
		}
	}
	return out, nil
}
