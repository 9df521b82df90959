package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gsso/internal/ecan"
	"gsso/internal/landmark"
	"gsso/internal/netsim"
	"gsso/internal/simrand"
	"gsso/internal/softstate"
	"gsso/internal/topology"
	"gsso/internal/wire"
)

// wireBenchResult is one wire benchmark's record in BENCH_wire.json.
// ConnsPerOp is new TCP dials per operation — ~1 for the dial-per-RPC
// baseline, ~0 for the pooled transport at steady state — and ReuseRatio
// is the fraction of calls served on an already-open connection.
type wireBenchResult struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	ConnsPerOp  float64 `json:"conns_per_op"`
	ReuseRatio  float64 `json:"reuse_ratio"`
}

type wireBenchReport struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	Results    []wireBenchResult `json:"results"`
}

// wireBenchCfg is a stub landmark space: the benchmarks exercise the
// transport, not measurement, so the landmark list never gets dialed.
func wireBenchCfg() wire.SpaceConfig {
	return wire.SpaceConfig{Landmarks: []string{"stub"}, IndexDims: 1, BitsPerDim: 4, MaxRTTMs: 50}
}

// runWireBench benches the wire transport in-process — the dial-per-RPC
// baseline against the pooled, multiplexed transport, the coalesced
// publish-batch path and queries against growing record counts — and
// writes the results to path as JSON.
func runWireBench(path string, out io.Writer) error {
	server, err := wire.NewNode("127.0.0.1:0", wireBenchCfg(), nil, time.Minute)
	if err != nil {
		return err
	}
	defer server.Close()
	client, err := wire.NewNode("127.0.0.1:0", wireBenchCfg(), nil, time.Minute)
	if err != nil {
		return err
	}
	defer client.Close()

	addr := server.Addr()
	tr := client.Transport()
	exp := time.Now().Add(time.Hour).UnixMilli()
	rec := wire.Record{Addr: "bench:1", Number: 12, ExpiresUnixMilli: exp}
	batch := make([]wire.Record, 64)
	for i := range batch {
		batch[i] = wire.Record{Addr: "bench:1", Number: uint64(i), ExpiresUnixMilli: exp}
	}

	// poolCounters reads the client transport's cumulative dial/reuse
	// meters; benchmarks diff them around the timed loop.
	poolCounters := func() (dials, reuse float64) {
		snap := client.Registry().Snapshot()
		dials, _ = snap.Value("wire_conn_dials_total")
		reuse, _ = snap.Value("wire_conn_reuse_total")
		return dials, reuse
	}

	var report wireBenchReport
	report.GOMAXPROCS = runtime.GOMAXPROCS(0)
	var benchErr error
	record := func(name string, pooled bool, op func() error) {
		if benchErr != nil {
			return
		}
		// Warm up once so pool dials are not billed to the timed loop.
		if err := op(); err != nil {
			benchErr = fmt.Errorf("%s: %w", name, err)
			return
		}
		dials0, reuse0 := poolCounters()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if res.N == 0 {
			benchErr = fmt.Errorf("%s: benchmark did not run", name)
			return
		}
		r := wireBenchResult{
			Name:        name,
			Ops:         res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if pooled {
			dials1, reuse1 := poolCounters()
			d, u := dials1-dials0, reuse1-reuse0
			r.ConnsPerOp = d / float64(res.N)
			if d+u > 0 {
				r.ReuseRatio = u / (d + u)
			}
		} else {
			r.ConnsPerOp = 1
		}
		report.Results = append(report.Results, r)
		fmt.Fprintf(out, "%-22s %10d ops %12.0f ns/op %6d allocs/op %8.3f conns/op %.3f reuse\n",
			name, r.Ops, r.NsPerOp, r.AllocsPerOp, r.ConnsPerOp, r.ReuseRatio)
	}

	record("store-dial-per-rpc", false, func() error {
		return wire.Store(addr, rec, time.Second)
	})
	record("store-pooled", true, func() error {
		resp, err := tr.RoundTrip(addr, wire.Message{Type: wire.MsgStore, Record: &rec}, time.Second)
		if err != nil {
			return err
		}
		if resp.Type != wire.MsgStored {
			return fmt.Errorf("unexpected response %q", resp.Type)
		}
		return nil
	})
	record("ping-pooled", true, func() error {
		resp, err := tr.RoundTrip(addr, wire.Message{Type: wire.MsgPing}, time.Second)
		if err != nil {
			return err
		}
		if resp.Type != wire.MsgPong {
			return fmt.Errorf("unexpected response %q", resp.Type)
		}
		return nil
	})
	record("publish-batch-64", true, func() error {
		resp, err := tr.RoundTrip(addr, wire.Message{Type: wire.MsgPublishBatch, Records: batch}, time.Second)
		if err != nil {
			return err
		}
		if resp.Type != wire.MsgBatchAck {
			return fmt.Errorf("unexpected response %q", resp.Type)
		}
		return nil
	})

	// query-r*: a pooled query for 24 records (FindNearest's 3 x budget 8)
	// against one node as it grows to 10^2, 10^3 and 10^4 records. Numbers
	// spread over 32 bits and the queried number moves every call, so each
	// query walks a different stretch of the index; nothing writes in the
	// timed loop, so the cost is the walk and the reply and should stay
	// flat in the record count.
	qserver, err := wire.NewNode("127.0.0.1:0", wireBenchCfg(), nil, time.Minute)
	if err != nil {
		return err
	}
	defer qserver.Close()
	rng := simrand.New(3)
	held, qn := 0, uint64(0)
	for _, row := range []struct {
		name    string
		records int
	}{{"query-r100", 100}, {"query-r1k", 1_000}, {"query-r10k", 10_000}} {
		for ; held < row.records; held++ {
			rec := wire.Record{Addr: fmt.Sprintf("10.%d.%d.%d:4000", byte(held>>16), byte(held>>8), byte(held)),
				Vector: []float64{rng.Float64() * 50}, Number: rng.Uint64() >> 32, ExpiresUnixMilli: exp}
			if _, err := tr.RoundTrip(qserver.Addr(), wire.Message{Type: wire.MsgStore, Record: &rec}, time.Second); err != nil {
				return err
			}
		}
		record(row.name, true, func() error {
			qn++
			resp, err := tr.RoundTrip(qserver.Addr(), wire.Message{Type: wire.MsgQuery, Number: (qn * 0x9E3779B97F4A7C15) >> 32, Max: 24}, time.Second)
			if err == nil && len(resp.Records) != 24 {
				err = fmt.Errorf("query returned %d records, want 24", len(resp.Records))
			}
			return err
		})
	}
	if benchErr != nil {
		return benchErr
	}
	if err := runStoreParallelPublish(&report, out); err != nil {
		return err
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runStoreParallelPublish appends the soft-state store's parallel
// publish cost to the report: four workers publishing disjoint member
// subsets into one store, every publish contending for its lock. The
// row keeps its name from when the store was split into lock shards and
// this was the one-shard baseline.
func runStoreParallelPublish(report *wireBenchReport, out io.Writer) error {
	spec := topology.Spec{
		TransitDomains:        3,
		TransitNodesPerDomain: 4,
		StubsPerTransitNode:   3,
		NodesPerStub:          12,
		ExtraTransitEdgeProb:  0.3,
		ExtraStubEdgeProb:     0.2,
		ExtraInterDomainLinks: 2,
		Latency:               topology.GTITMLatency(),
	}
	net := topology.MustGenerate(spec, simrand.New(1))
	const workers = 4
	env := netsim.New(net)
	rng := simrand.New(2)
	ov, err := ecan.BuildUniform(net, 64, 2, 0, ecan.RandomSelector{RNG: rng.Split("sel")}, rng)
	if err != nil {
		return err
	}
	set, err := landmark.Choose(net, 8, rng.Split("landmarks"))
	if err != nil {
		return err
	}
	maxRTT := landmark.EstimateMaxRTT(net, set, net.RandomStubHosts(rng.Split("est"), 30))
	space, err := landmark.NewSpace(set, 3, 5, maxRTT)
	if err != nil {
		return err
	}
	store, err := softstate.NewStore(ov, space, env, softstate.DefaultConfig())
	if err != nil {
		return err
	}
	members := ov.CAN().Members()
	vecs := make([]landmark.Vector, len(members))
	for i, m := range members {
		vecs[i] = landmark.Measure(env, m.Host, space.Set())
		if err := store.Publish(m, vecs[i]); err != nil {
			return err
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var wg sync.WaitGroup
		per := b.N/workers + 1
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					idx := (w + i*workers) % len(members)
					if err := store.Publish(members[idx], vecs[idx]); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
	if res.N == 0 {
		return errors.New("store-parallel-publish-s1: benchmark did not run")
	}
	r := wireBenchResult{
		Name:        "store-parallel-publish-s1",
		Ops:         res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	report.Results = append(report.Results, r)
	fmt.Fprintf(out, "%-22s %10d ops %12.0f ns/op %6d allocs/op\n",
		r.Name, r.Ops, r.NsPerOp, r.AllocsPerOp)
	return nil
}

// diffWireBench compares a fresh -wire-bench run (headPath) against the
// checked-in baseline (basePath) and fails on any shared benchmark whose
// ns/op regressed by more than tolerance (0.20 = 20%). Benchmarks
// present on only one side are skipped — renames and additions must not
// wedge the gate — and improvements are reported but never fail. The
// Makefile's bench-diff target retries one failure once before
// believing it, since single-shot micro-benchmarks on a shared box are
// noisy.
func diffWireBench(headPath, basePath string, tolerance float64, out io.Writer) error {
	load := func(path string) (map[string]wireBenchResult, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep wireBenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		byName := make(map[string]wireBenchResult, len(rep.Results))
		for _, r := range rep.Results {
			byName[r.Name] = r
		}
		return byName, nil
	}
	head, err := load(headPath)
	if err != nil {
		return err
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	var regressions []string
	for name, b := range base {
		h, ok := head[name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		delta := (h.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok"
		if delta > tolerance {
			status = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", name, b.NsPerOp, h.NsPerOp, delta*100))
		}
		fmt.Fprintf(out, "bench-diff %-24s %10.0f -> %10.0f ns/op  %+6.1f%%  %s\n",
			name, b.NsPerOp, h.NsPerOp, delta*100, status)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("wire benchmarks regressed past %.0f%% vs %s:\n  %s",
			tolerance*100, basePath, strings.Join(regressions, "\n  "))
	}
	return nil
}
