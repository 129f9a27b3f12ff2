// Command ibox-experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for paper-vs-measured).
//
// Usage:
//
//	ibox-experiments -run all -scale quick
//	ibox-experiments -run fig2,fig5 -scale paper
//	ibox-experiments -run all -parallel        # run the figures concurrently
//	ibox-experiments -run all -serial          # single-goroutine reference mode
//
// Observability (see internal/obs and DESIGN.md's Observability section):
//
//	ibox-experiments -run fig2 -report RUN_REPORT.json  # per-stage timings, worker
//	                                                    # utilization, histograms
//	ibox-experiments -run all -trace-out trace.json     # chrome://tracing / Perfetto
//	ibox-experiments -run all -log run.log -log-level debug  # structured JSON logs,
//	                                                    # each record tagged with the
//	                                                    # active span path and stage
//	ibox-experiments -run all -scale paper -debug-addr :6060  # live expvar + pprof
//
// Results are deterministic in the seed: serial and parallel runs print
// byte-identical experiment output (only timings differ), and enabling
// observability never changes any experiment output.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"ibox/internal/experiments"
	"ibox/internal/obs"
	"ibox/internal/par"
	"ibox/internal/serve"
)

// serveDebug exposes expvar (including the live obs metric snapshot) and
// net/http/pprof on addr, in the standard /debug/... layout, on a mux of
// its own (shared with ibox-serve's -debug; see serve.DebugMux).
func serveDebug(addr string) {
	go func() {
		if err := http.ListenAndServe(addr, serve.DebugMux()); err != nil {
			log.Printf("debug server: %v", err)
		}
	}()
}

// plotter is implemented by results that can emit CSV plot series.
type plotter interface {
	WritePlots(dir string) error
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ibox-experiments: ")
	var (
		runList   = flag.String("run", "all", "comma-separated experiments: fig2, fig3, fig4, fig5, fig7, fig8, table1, speed, adaptive, baselines, realism, all")
		scaleName = flag.String("scale", "quick", "experiment scale: quick (seconds) or paper (minutes, paper-sized corpora)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		plotDir   = flag.String("plot", "", "also write each figure's plottable series as CSV into this directory")
		parallel  = flag.Bool("parallel", false, "run the selected experiments concurrently (results print in the usual order)")
		serial    = flag.Bool("serial", false, "disable all intra-experiment parallelism (single goroutine; byte-identical results)")
		workers   = flag.Int("workers", 0, "bound the fan-out width; 0 = one worker per CPU")
		report    = flag.String("report", "", "write a structured end-of-run report (RUN_REPORT.json) to this path")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this path")
		debugAddr = flag.String("debug-addr", "", "serve expvar and net/http/pprof on this address (e.g. :6060) while running")
		logPath   = flag.String("log", "", `write structured JSON run logs to this path ("-" or "stderr" for stderr)`)
		logLevel  = flag.String("log-level", "info", "minimum structured-log level: debug, info, warn, error")
	)
	flag.Parse()
	if *parallel && *serial {
		log.Fatalf("-parallel and -serial are mutually exclusive")
	}

	// Any observability output requested enables the layer; otherwise it
	// stays disabled and the pipeline runs exactly as before (no clock
	// reads, no atomics — see internal/obs).
	var reg *obs.Registry
	if *report != "" || *traceOut != "" || *debugAddr != "" || *logPath != "" {
		reg = obs.Enable()
	}
	var slogger *slog.Logger
	if *logPath != "" {
		w := io.Writer(os.Stderr)
		if *logPath != "-" && *logPath != "stderr" {
			f, err := os.Create(*logPath)
			if err != nil {
				log.Fatalf("opening -log file: %v", err)
			}
			defer f.Close()
			w = f
		}
		slogger = slog.New(obs.NewLogHandler(w, obs.ParseLogLevel(*logLevel)))
		obs.SetLogger(slogger)
	}
	if *debugAddr != "" {
		serveDebug(*debugAddr)
		log.Printf("serving expvar and pprof on http://%s/debug/", *debugAddr)
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick()
	case "paper":
		scale = experiments.Paper()
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}
	scale.Seed = *seed
	scale.Serial = *serial
	scale.Workers = *workers

	type experiment struct {
		name string
		run  func(experiments.Scale) (fmt.Stringer, error)
	}
	all := []experiment{
		{"fig2", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Fig2(s) }},
		{"fig3", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Fig3(s) }},
		{"fig4", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Fig4(s) }},
		{"fig5", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Fig5(s) }},
		{"fig7", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Fig7(s) }},
		{"fig8", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Fig8(s) }},
		{"table1", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Table1(s) }},
		{"speed", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Speed(s) }},
		{"adaptive", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.AdaptiveCT(s) }},
		{"baselines", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Baselines(s) }},
		{"realism", func(s experiments.Scale) (fmt.Stringer, error) { return experiments.Realism(s) }},
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var selected []experiment
	for _, e := range all {
		if want["all"] || want[e.name] {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		log.Fatalf("no experiments matched -run %q", *runList)
	}
	if slogger != nil {
		names := make([]string, len(selected))
		for i, e := range selected {
			names[i] = e.name
		}
		slogger.Info("run start",
			"experiments", strings.Join(names, ","), "scale", *scaleName,
			"seed", *seed, "parallel", *parallel, "serial", *serial)
	}

	// In -parallel mode the selected experiments run concurrently (on top
	// of each experiment's internal fan-out) but results are collected and
	// printed in the canonical order, so the output is identical to a
	// sequential invocation.
	expOpts := par.Options{Serial: !*parallel, Workers: *workers}
	type outcome struct {
		res     fmt.Stringer
		err     error
		elapsed time.Duration
	}
	outs, _ := par.Map(len(selected), expOpts, func(i int) (outcome, error) {
		start := time.Now()
		res, err := selected[i].run(scale)
		elapsed := time.Since(start)
		if slogger != nil {
			if err != nil {
				slogger.Error("experiment failed", "experiment", selected[i].name,
					"seconds", elapsed.Seconds(), "error", err.Error())
			} else {
				slogger.Info("experiment done", "experiment", selected[i].name,
					"seconds", elapsed.Seconds())
			}
		}
		return outcome{res, err, elapsed}, nil
	})

	failed := false
	for i, e := range selected {
		o := outs[i]
		if o.err != nil {
			log.Printf("%s: %v", e.name, o.err)
			failed = true
			continue
		}
		fmt.Printf("== %s (%.1fs) ==\n%s\n", e.name, o.elapsed.Seconds(), o.res)
		if *plotDir != "" {
			if p, ok := o.res.(plotter); ok {
				if err := p.WritePlots(*plotDir); err != nil {
					log.Printf("%s: writing plots: %v", e.name, err)
					failed = true
				}
			}
		}
	}
	if *report != "" {
		if err := reg.WriteReport(*report); err != nil {
			log.Printf("%v", err)
			failed = true
		} else {
			log.Printf("wrote %s", *report)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = reg.TraceJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			log.Printf("writing trace: %v", err)
			failed = true
		} else {
			log.Printf("wrote %s (open in chrome://tracing or https://ui.perfetto.dev)", *traceOut)
		}
	}
	if failed {
		os.Exit(1)
	}
}
