// Command perfbench is the repository benchmark. It runs one seeded
// workload against the code of the checkout it was built from and prints
// a JSON result as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, measured by wrapping the
// calls into each layer's public functions with in-memory spans that are
// written out when the run ends. Run it through run.sh from the
// repository root, which builds overlayd and this driver first:
//
//	bash perfbench/run.sh --workload wire-read --seed 3 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"
)

// hardLimit bounds one run: a wedged fleet or simulator must not outlive
// the caller's patience. Every process the run started is stopped before
// the driver exits.
const hardLimit = 170 * time.Second

// config is what one run was asked to do.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	overlayd string // overlayd binary for the wire workloads
	out      string // directory for fleet logs, spans and result copies
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempted and failed operations; a failed output check
// counts as a failed operation.
type tally struct {
	attempted int64
	failed    int64
	notes     []string // first few failure reasons, for the log
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation and fails it when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

// okRatio is the end-to-end share of operations that succeeded.
func (t *tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// corruptOutput makes each workload corrupt one of its outputs (a reply
// record, a find-nearest answer, a fingerprint) before checking it.
var corruptOutput bool

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]func(ctx context.Context, cfg config) (map[string]metric, *tally, *spans, error){
	"sim-scale":  runSimScale,
	"wire-read":  runWireRead,
	"wire-fleet": runWireFleet,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cfg        config
		seed       = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.StringVar(&cfg.workload, "workload", "", "sim-scale, wire-read or wire-fleet")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured duration of the run")
	flag.StringVar(&cfg.overlayd, "overlayd", "", "overlayd binary for the wire workloads")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for fleet logs, spans and results")
	record := flag.Int("record-fingerprints", 0, "print sim-scale fingerprints for seeds 0..n-1 as fingerprints.json content, and exit")
	flag.BoolVar(&corruptOutput, "corrupt", false, "corrupt one output before it is checked, to show the checks fire")
	flag.Parse()
	cfg.seed, cfg.trace = *seed, *trace == 1
	if *record > 0 {
		if err := recordFingerprints(*record, cfg.out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[cfg.workload]
	if !ok || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n",
			cfg.workload, *trace, cfg.seconds)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	host := fingerprint(cfg)
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))

	metrics, t, sp, err := fn(ctx, cfg)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if metrics, err = complete(metrics, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range t.notes {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", n)
	}
	res := result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
	if err := writeArtifacts(cfg, host, res, sp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// writeArtifacts keeps a copy of the result with its host fingerprint,
// and the traced run's spans, under the output directory.
func writeArtifacts(cfg config, host hostInfo, res result, sp *spans) error {
	mode := "e2e"
	if cfg.trace {
		mode = "traced"
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-%s", cfg.workload, cfg.seed, mode))
	raw, err := json.MarshalIndent(struct {
		Host   hostInfo `json:"host"`
		Result result   `json:"result"`
	}{host, res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if sp == nil {
		return nil
	}
	return sp.writeFile(base + ".spans.jsonl")
}
