// Serving: run the Fig. 2 control loop — the DeepBAT surrogate optimizer
// re-planning (M, B, T) every control period over the count-or-timeout
// buffer on simulated Lambda — across a diurnal workload, and compare it
// against a statically configured deployment of the same application.
package main

import (
	"fmt"
	"log"

	"deepbat"
	"deepbat/internal/stats"
)

func main() {
	const slo = 0.1

	// Train on the first half of the day, serve the second half.
	day, err := deepbat.GenerateTrace(deepbat.TraceSpec{
		Name: "azure", Hours: 12, HourSeconds: 60, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	trainTrace := day.FirstHours(6)
	serveTrace := day.LastHours(6)

	opts := deepbat.DefaultOptions()
	opts.Model.SeqLen = 32
	opts.DatasetSamples = 400
	opts.Train.Epochs = 8
	opts.SLO = slo
	fmt.Println("training on the first 6 hours...")
	sys, err := deepbat.Train(trainTrace, opts)
	if err != nil {
		log.Fatal(err)
	}

	initial := deepbat.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05}
	ropts := deepbat.ReplayOptions{
		PeriodS:       10,
		DecideEvery:   1,
		LookbackS:     60,
		InitialConfig: initial,
		SLO:           slo,
	}

	// DeepBAT-controlled serving: every 10 simulated seconds the optimizer
	// re-plans (M, B, T) from the last minute of interarrivals.
	fmt.Printf("serving %d requests under DeepBAT control...\n", len(serveTrace.Timestamps))
	dyn, err := sys.Replay(serveTrace.Timestamps, sys.Decider(), ropts)
	if err != nil {
		log.Fatal(err)
	}

	// Static deployment for comparison: same initial config, never adapted.
	static, err := sys.Replay(serveTrace.Timestamps, sys.Static(initial), ropts)
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, res *deepbat.ReplayResult) {
		reconfigs, cur := 0, initial
		for _, p := range res.Periods {
			if p.Config != cur {
				reconfigs, cur = reconfigs+1, p.Config
			}
		}
		p95, _ := stats.Percentile(res.Latencies(), 95)
		fmt.Printf("%-22s P95 %6.1fms  VCR %6.2f%%  cost %.3f u$/req  reconfigs %d\n",
			name, p95*1000, res.VCR(), res.CostPerRequest()*1e6, reconfigs)
	}
	fmt.Println()
	report("DeepBAT:", dyn)
	report("static deployment:", static)

	last := dyn.Periods[len(dyn.Periods)-1]
	fmt.Printf("\nfinal DeepBAT configuration: %s\n", last.Config)
}
