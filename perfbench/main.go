// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload and prints, as the last line of standard output, a
// JSON object with the keys correct, attempted, failed and metrics:
//
//	go run . --workload decide-deepbat --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - decide-deepbat: the azure trace replayed through the real gateway on a
//     virtual clock, with System.Decide forced at every control period.
//   - decide-batch: the same replay loop with the BATCH analytical baseline
//     deciding once per paper-hour, on a shortened trace.
//   - serve-fleet: a wall-clock open loop through a planned multi-class
//     fleet, plus a rate ladder for the capacity metric.
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run is repeated with spans around every layer call and the metrics are the
// per-layer ones. The process exits non-zero when a correctness check fails
// (requests answered exactly once, decisions on the grid, deterministic
// replays). README.md explains the metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload     string
	seed         int64
	seconds      float64
	traced       bool
	spansPath    string
	trainSamples int
	trainEpochs  int
	// tiny shrinks every workload to test size.
	tiny bool
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	// extra holds figures printed for the reader but kept out of the
	// result line.
	extra map[string]metric
	// samples holds the sample count behind each timing, printed with it.
	samples map[string]int
	// failures lists the correctness checks that did not hold.
	failures []string
	prov     map[string]any
	spans    *spanLog
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, extra: map[string]metric{}, samples: map[string]int{}, prov: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64, n int) {
	o.metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		o.samples[name] = n
	}
}

// note records a printed-only figure.
func (o *outcome) note(name, unit string, v float64, n int) {
	o.extra[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		o.samples[name] = n
	}
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type workloadFunc func(opts options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"decide-deepbat": runDecideDeepBAT,
	"decide-batch":   runDecideBatch,
	"serve-fleet":    runServeFleet,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload: decide-deepbat, decide-batch or serve-fleet")
	fs.Int64Var(&opts.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&opts.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opts.spansPath, "spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>.csv)")
	fs.IntVar(&opts.trainSamples, "train-samples", 300, "labeled samples the decide-deepbat surrogate trains on")
	fs.IntVar(&opts.trainEpochs, "train-epochs", 3, "epochs the decide-deepbat surrogate trains for")
	fs.BoolVar(&opts.tiny, "tiny", false, "shrink every workload to test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opts.traced = trace == 1
	fn, ok := workloads[opts.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opts.workload)
		return 2
	}
	if opts.seconds <= 0 || opts.trainSamples <= 0 || opts.trainEpochs <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds, --train-samples and --train-epochs must be positive")
		return 2
	}
	if opts.spansPath == "" {
		opts.spansPath = filepath.Join(".bench_build", "spans-"+opts.workload+".csv")
	}

	out, err := fn(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	if out.spans != nil {
		if err := out.spans.writeFile(opts.spansPath); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		out.prov["spans_file"] = opts.spansPath
		out.prov["spans"] = out.spans.len()
	}
	for k, v := range provenance() {
		out.prov[k] = v
	}
	out.prov["workload"] = opts.workload
	out.prov["seed"] = opts.seed
	out.prov["traced"] = opts.traced
	return report(out, stdout, stderr)
}

// report prints the human-readable lines, the provenance line and the result
// line, and returns the exit code.
func report(out *outcome, stdout, stderr io.Writer) int {
	for _, set := range []map[string]metric{out.metrics, out.extra} {
		for _, name := range sortedKeys(set) {
			m := set[name]
			line := fmt.Sprintf("%-34s %14.6g %s", name, m.Value, m.Unit)
			if n := out.samples[name]; n > 0 {
				line += fmt.Sprintf("  (n=%d)", n)
			}
			fmt.Fprintln(stdout, line)
		}
	}
	errPct := 0.0
	if out.attempted > 0 {
		errPct = 100 * float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(stdout, "%-34s %14.6g %%  (%d of %d)\n", "error_pct", errPct, out.failed, out.attempted)
	prov, err := json.Marshal(out.prov)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: provenance: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
	}
	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d correctness check(s) failed: %s\n",
			len(out.failures), strings.Join(out.failures, "; "))
		return 1
	}
	return 0
}
