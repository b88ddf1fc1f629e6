// Command perfbench is the repository's benchmark. It reads
// BENCHMARK.json, builds a high-order model from a seeded synthetic
// history, boots homserve (and, for the fleet workload, homgate in front
// of tiered replicas) in-process on loopback listeners, drives one
// workload's traffic from one process, checks every served answer against
// an offline twin predictor, and prints every metric by name and unit.
// The last line of standard output is the JSON result.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload serve-json-b16 --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no benchmark code on the
// request path; --trace 1 is a separate run that records spans around the
// layers' calls and reports the per-layer metrics, writing the spans as
// Chrome-trace JSON next to the build output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// watchdog bounds a run: a run that hangs exits nonzero, saying so,
// rather than running until something outside kills it.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outDir is where a run keeps its scratch files and traces: the build
// directory run.sh uses, inside the checkout.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	secs := fs.Int("seconds", 0, "measured seconds (0 = run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	w, ok := workloads[*name]
	if !ok || !sp.hasWorkload(*name) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *secs <= 0 {
		*secs = sp.RunSeconds
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	defer timer.Stop()

	cfg := config{workload: w, seed: *seed, seconds: *secs, trace: *trace == 1,
		dir:      filepath.Join(outDir(), "run", strconv.Itoa(os.Getpid())),
		traceOut: filepath.Join(outDir(), "trace-"+w.name+".json")}
	fmt.Fprintf(stdout, "machine: nproc %d, cpu %q, %s, GOMAXPROCS %d\n",
		runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.NumCPU())
	fmt.Fprintf(stdout, "run: workload %s, seed %d, %ds measured, trace %d\n", w.name, *seed, *secs, *trace)
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
	}
	out, err := res.render(stdout, want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintf(stderr, "perfbench: %v\n", e)
	}
	fmt.Fprintln(stdout, string(out))
	if len(res.errs) > 0 {
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close() //homlint:allow errdrop -- read-only file
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// render prints every measured metric with its unit and its spread over
// the repeats, then returns the result line, which carries exactly the
// metrics want declares, with the declared units. A measured metric that
// want does not declare is printed as report-only.
func (res *result) render(log io.Writer, want []metricSpec) ([]byte, error) {
	declared := map[string]metricSpec{}
	for _, ms := range want {
		declared[ms.Name] = ms
	}
	out := jsonResult{Correct: len(res.errs) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range res.metrics {
		kind := "metric"
		if ms, ok := declared[m.name]; ok {
			if m.unit != ms.Unit {
				return nil, fmt.Errorf("metric %s measured in %s, declared in %s", m.name, m.unit, ms.Unit)
			}
			out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		} else {
			kind = "report"
		}
		line := fmt.Sprintf("%s %-46s %14.6g %s", kind, m.name, m.value, m.unit)
		if len(m.repeats) > 0 {
			s := summarize(m.repeats)
			line += fmt.Sprintf("  [%d repeats: min %.6g q1 %.6g median %.6g q3 %.6g max %.6g]", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		if len(m.pcts) > 0 {
			var ps []string
			for _, p := range m.pcts {
				ps = append(ps, p.String())
			}
			line += " (" + strings.Join(ps, ", ") + ")"
		}
		fmt.Fprintln(log, line)
	}
	for _, ms := range want {
		if _, ok := out.Metrics[ms.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", ms.Name)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(log, "note:", n)
	}
	return json.Marshal(out)
}
