// Multiclass: serve two inference model classes side by side (the MBS
// direction the paper cites as the multi-class successor of BATCH): a speech
// model with a 100 ms SLO on a diurnal workload and a lightweight vision
// model with a 50 ms SLO on a steadier stream. Each class gets its own
// DeepBAT controller and replays its own stream; the per-class outcomes are
// reported side by side. (Live multi-class serving, with SLO-merged function
// groups behind one front door, is internal/fleet.)
package main

import (
	"fmt"
	"log"
	"math"

	"deepbat"
	"deepbat/internal/lambda"
	"deepbat/internal/stats"
)

func main() {
	speechTrace, err := deepbat.GenerateTrace(deepbat.TraceSpec{
		Name: "azure", Hours: 3, HourSeconds: 40, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	visionTrace, err := deepbat.GenerateTrace(deepbat.TraceSpec{
		Name: "twitter", Hours: 3, HourSeconds: 40, Seed: 12,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One DeepBAT system per class: the surrogate is trained against the
	// class's own service-time profile.
	speechSys := trainFor(speechTrace, lambda.Profiles["nlp-base"], 0.1)
	visionSys := trainFor(visionTrace, lambda.Profiles["cnn-small"], 0.05)

	opts := deepbat.ReplayOptions{
		PeriodS:       10,
		DecideEvery:   1,
		LookbackS:     40,
		InitialConfig: deepbat.Config{MemoryMB: 2048, BatchSize: 4, TimeoutS: 0.05},
	}
	classes := []struct {
		name string
		sys  *deepbat.System
		tr   *deepbat.Trace
	}{
		{"speech", speechSys, speechTrace},
		{"vision", visionSys, visionTrace},
	}
	fmt.Printf("replaying %d requests across %d classes...\n\n",
		len(speechTrace.Timestamps)+len(visionTrace.Timestamps), len(classes))
	var requests int
	var cost, worst, weighted float64
	for _, c := range classes {
		opts.SLO = c.sys.Opts.SLO
		res, err := c.sys.Replay(c.tr.Timestamps, c.sys.Decider(), opts)
		if err != nil {
			log.Fatalf("class %s: %v", c.name, err)
		}
		n, vcr := len(res.Latencies()), res.VCR()
		p95, _ := stats.Percentile(res.Latencies(), 95)
		fmt.Printf("%-12s requests=%-7d VCR=%6.2f%%  P95=%6.1fms  cost=%.3fu$/req\n",
			c.name, n, vcr, p95*1000, res.CostPerRequest()*1e6)
		requests += n
		cost += res.TotalCost()
		worst = math.Max(worst, vcr)
		weighted += vcr * float64(n)
	}
	fmt.Printf("\noverall: %d requests, worst-class VCR %.2f%%, mean VCR %.2f%%, %.3f micro-USD/request\n",
		requests, worst, weighted/float64(requests), cost/float64(requests)*1e6)
}

// trainFor trains a small per-class surrogate against the class profile.
func trainFor(tr *deepbat.Trace, profile deepbat.Profile, slo float64) *deepbat.System {
	opts := deepbat.DefaultOptions()
	opts.Profile = profile
	opts.SLO = slo
	opts.Model.SeqLen = 32
	opts.DatasetSamples = 300
	opts.Train.Epochs = 8
	fmt.Printf("training the %s-profile surrogate (SLO %.0fms)...\n", profile.Name, slo*1000)
	sys, err := deepbat.Train(tr, opts)
	if err != nil {
		log.Fatal(err)
	}
	return sys
}
