package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepbat/internal/gateway"
	"deepbat/internal/lambda"
	"deepbat/internal/workload"
)

// contract is the part of BENCHMARK.json the result line must match.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny runs one tiny benchmark run and returns its exit code, result
// line and provenance.
func runTiny(t *testing.T, args ...string) (int, result, map[string]any) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--tiny", "--seconds", "0.2", "--train-samples", "40", "--train-epochs", "1",
		"--spans", filepath.Join(t.TempDir(), "spans.csv")}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	prov := map[string]any{}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "provenance "); ok {
			if err := json.Unmarshal([]byte(rest), &prov); err != nil {
				t.Fatal(err)
			}
		}
	}
	return code, res, prov
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	c := loadContract(t)
	for _, wl := range []string{"decide-deepbat", "decide-batch", "serve-fleet"} {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": c.EndToEnd, "1": c.PerLayer} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				code, res, prov := runTiny(t, "--workload", wl, "--seed", "3", "--trace", trace)
				if code != 0 || !res.Correct {
					t.Fatalf("exit %d, correct %v", code, res.Correct)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("missing metric %s", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				for _, key := range []string{"num_cpu", "gomaxprocs", "cpu_model", "go_version", "git_commit", "seed", "shards", "trace_digest"} {
					if _, ok := prov[key]; !ok {
						t.Errorf("provenance lacks %s", key)
					}
				}
			})
		}
	}
}

func TestEndToEndMetricsArePositive(t *testing.T) {
	c := loadContract(t)
	_, res, _ := runTiny(t, "--workload", "decide-batch", "--seed", "1")
	for _, m := range c.EndToEnd {
		if v := res.Metrics[m.Name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", m.Name, v)
		}
	}
}

func TestSeedChangesTraceDigest(t *testing.T) {
	_, _, a := runTiny(t, "--workload", "decide-batch", "--seed", "1")
	_, _, b := runTiny(t, "--workload", "decide-batch", "--seed", "2")
	_, _, a2 := runTiny(t, "--workload", "decide-batch", "--seed", "1")
	if a["trace_digest"] == b["trace_digest"] {
		t.Errorf("seeds 1 and 2 share trace digest %v", a["trace_digest"])
	}
	if a["trace_digest"] != a2["trace_digest"] {
		t.Errorf("seed 1 digests differ: %v vs %v", a["trace_digest"], a2["trace_digest"])
	}
}

// tinyDecide is a decide workload on a tiny azure trace with the given
// controller and backend.
func tinyDecide(decide decideFunc, backend gateway.Backend) decideWorkload {
	grid := lambda.Grid{Memories: []float64{1024, 2048}, Batches: []int{4, 8}, TimeoutsS: []float64{0.05, 0.1}}
	return decideWorkload{
		setup: func(st stageTimes, rec *recorder) (replaySpec, error) {
			tr, err := workload.Generate(azureSpec(options{tiny: true, seed: 1}, 0))
			return replaySpec{trace: tr, periodS: 1, windowLen: 16, slo: 0.1, grid: grid,
				initial: initialConfig, decide: decide, layer: "optimizer", backend: backend}, err
		},
		layers: func(*outcome, *recorder, replaySpec, *replayResult) {},
	}
}

func TestOffGridDecisionTripsCheck(t *testing.T) {
	offGrid := func([]float64, *recorder) (lambda.Config, bool, error) {
		return lambda.Config{MemoryMB: 1536, BatchSize: 4, TimeoutS: 0.1}, true, nil
	}
	o, err := runDecide(options{seconds: 0.01}, tinyDecide(offGrid, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !hasFailure(o, "outside the grid") {
		t.Fatalf("off-grid decisions passed the checks: %v", o.failures)
	}
}

func TestFailingBackendShowsInErrors(t *testing.T) {
	o, err := runDecide(options{seconds: 0.01}, tinyDecide(onGridDecider, failingBackend{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.failures) != 0 {
		t.Fatalf("accounting checks failed: %v", o.failures)
	}
	if o.failed == 0 || o.failed > o.attempted {
		t.Fatalf("failed %d of %d; want every request to fail", o.failed, o.attempted)
	}
	if v := o.metrics["slo_attainment_pct"].Value; v != 0 {
		t.Fatalf("slo_attainment_pct = %v with every request failed, want 0", v)
	}
}

func TestSelfTimes(t *testing.T) {
	epoch := time.Now()
	r := &recorder{epoch: epoch}
	r.spans = []span{
		{name: "harness.replay", start: 0, end: 100, parent: -1},
		{name: "gateway.DecideNow", start: 10, end: 60, parent: 0},
		{name: "optimizer.Decide", start: 20, end: 50, parent: 1},
		{name: "gateway.Submit", start: 70, end: 80, parent: 0},
	}
	l := &spanLog{epoch: epoch, recs: []*recorder{r}}
	got := l.selfTimes()
	want := map[string]int64{"harness": 40, "gateway": 30, "optimizer": 30}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
}

func onGridDecider([]float64, *recorder) (lambda.Config, bool, error) {
	return lambda.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.05}, true, nil
}

type failingBackend struct{}

func (failingBackend) Execute(lambda.Config, int) (time.Duration, float64, error) {
	return 0, 0, errors.New("backend down")
}

func hasFailure(o *outcome, substr string) bool {
	for _, f := range o.failures {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}
