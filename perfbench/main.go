// Command perfbench is the repository benchmark. It starts an in-process
// serve.Server configured like ibox-serve's defaults, drives one of three
// workloads against it over HTTP from at most nproc connections, checks
// every response against the offline code path, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer metrics — as the
// last line of stdout, one JSON object. WORKLOADS.md records why each
// workload exists and which layer should move which metric.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload replay-paper --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"ibox/internal/obs"
)

// setupRepeats is how many times an end-to-end run sets the workload up;
// setup_s reports the median.
const setupRepeats = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: replay-paper, simulate-mix or sessions")
		seed    = flag.Int64("seed", 1, "workload seed; corpora, checkpoints, request specs and arrival schedules derive from it")
		seconds = flag.Int("seconds", 15, "measured seconds of load")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	)
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// The daemon's observability defaults: metrics on, JSON access log
	// through the obs handler (discarded here).
	obs.Enable()
	obs.SetLogger(slog.New(obs.NewLogHandler(io.Discard, slog.LevelInfo)))

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	work := filepath.Join(cwd, ".bench_build", "perfbench", fmt.Sprintf("%s-s%d-p%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	b := &bench{spec: spec, seed: *seed, seconds: *seconds, work: work, nproc: runtime.NumCPU()}
	b.printEnv()
	var res result
	if *trace == 1 {
		res, err = b.runTraced(filepath.Join(cwd, ".bench_build", "perfbench", fmt.Sprintf("trace-%s-s%d.json", *name, *seed)))
	} else {
		res, err = b.runEndToEnd()
	}
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// printEnv records what "bitwise" and the timings depend on.
func (b *bench) printEnv() {
	avx2, fma := cpuFeatures()
	fmt.Printf("# env: workload=%s seed=%d seconds=%d gomaxprocs=%d nproc=%d go=%s avx2=%v fma=%v\n",
		b.spec.name, b.seed, b.seconds, runtime.GOMAXPROCS(0), b.nproc, runtime.Version(), avx2, fma)
}
