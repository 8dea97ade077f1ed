package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"
)

// layerTimes maps each per-layer time metric to the spans whose self times
// it sums.
var layerTimes = map[string][]string{
	"san.fingerprint_s":    {"san.Fingerprint"},
	"san.expand_s":         {"san.ExpandPhases"},
	"san.fit_s":            {"san.FitPhases"},
	"san.compile_s":        {"san.Compile"},
	"san.sim_s":            {"san.NewSimulator", "san.Reset", "san.Run"},
	"statespace.certify_s": {"statespace.Certify"},
	"statespace.solve_s":   {"statespace.SolveTransient"},
	"abe.build_s":          {"abe.Build"},
	"raid.build_s":         {"raid.BuildStorage"},
	"report.json_s":        {"report.JSON"},
}

// layerAllocs maps each per-layer allocation metric to its time metric.
var layerAllocs = map[string]string{
	"san.fingerprint_alloc_mb":    "san.fingerprint_s",
	"san.expand_alloc_mb":         "san.expand_s",
	"statespace.certify_alloc_mb": "statespace.certify_s",
	"san.sim_alloc_mb":            "san.sim_s",
}

// counters are the per-layer counts the replay records, by metric name.
var counters = map[string]string{
	"statespace.states":   "count",
	"statespace.edges":    "count",
	"statespace.lambda_t": "1",
	"san.fits":            "count",
	"san.sim_events":      "count",
	"raid.places":         "count",
	"abe.places":          "count",
	"abe.activities":      "count",
}

// gcUsage is the runtime's cumulative GC work.
type gcUsage struct{ cycles, gcCPU, userCPU, scavengeCPU float64 }

var gcSample = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
	{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
}

func readGC() gcUsage {
	metrics.Read(gcSample)
	return gcUsage{
		cycles:      float64(gcSample[0].Value.Uint64()),
		gcCPU:       gcSample[1].Value.Float64(),
		userCPU:     gcSample[2].Value.Float64(),
		scavengeCPU: gcSample[3].Value.Float64(),
	}
}

// gcShare is the share of the busy CPU time between a and b spent in GC.
func gcShare(a, b gcUsage) float64 {
	gc := b.gcCPU - a.gcCPU
	return ratio(gc, gc+(b.userCPU-a.userCPU)+(b.scavengeCPU-a.scavengeCPU))
}

// layerInputs are the measurements the per-layer metrics derive from.
type layerInputs struct {
	spans     []span
	counts    map[string]float64
	p1S       float64 // untraced run at Parallelism 1
	parWallS  float64 // untraced run at sweepParallelism
	gc0, gc1  gcUsage // around the untraced run at sweepParallelism
	jsonBytes int
}

// layerMetrics derives every per-layer metric.
func layerMetrics(in layerInputs) map[string]metric {
	self := selfCosts(in.spans)
	ms := make(map[string]metric)
	layerSum := 0.0
	for name, spanNames := range layerTimes {
		s := 0.0
		for _, sn := range spanNames {
			s += self[sn].Seconds
		}
		ms[name] = metric{s, "s"}
		if name != "report.json_s" {
			layerSum += s
		}
	}
	for name, timeName := range layerAllocs {
		b := 0.0
		for _, sn := range layerTimes[timeName] {
			b += self[sn].Bytes
		}
		ms[name] = metric{b / 1e6, "MB"}
	}
	for name, unit := range counters {
		ms[name] = metric{in.counts[name], unit}
	}
	traced, prepass := 0.0, 0.0
	for _, s := range in.spans {
		d := float64(s.EndNS-s.StartNS) / 1e9
		switch s.Name {
		case "workload":
			traced += d
		case "prepass":
			prepass += d
		}
	}
	ms["san.events_per_s"] = metric{ratio(in.counts["san.sim_events"], ms["san.sim_s"].Value), "1/s"}
	ms["sweep.cache_hit_ratio"] = metric{ratio(in.counts["sweep.hits"], in.counts["sweep.keyed"]), "ratio"}
	ms["sweep.analytic_ratio"] = metric{ratio(in.counts["sweep.analytic"], in.counts["sweep.certify_attempts"]), "ratio"}
	ms["sweep.p1_s"] = metric{in.p1S, "s"}
	ms["sweep.speedup"] = metric{ratio(in.p1S, in.parWallS), "ratio"}
	ms["sweep.overhead_s"] = metric{in.p1S - layerSum, "s"}
	ms["sweep.prepass_share"] = metric{ratio(prepass, traced), "ratio"}
	ms["runtime.gc_cpu_share"] = metric{gcShare(in.gc0, in.gc1), "ratio"}
	ms["runtime.gc_cycles"] = metric{in.gc1.cycles - in.gc0.cycles, "count"}
	ms["report.json_bytes"] = metric{float64(in.jsonBytes), "bytes"}
	ms["trace.overhead_s"] = metric{traced - in.p1S, "s"}
	return ms
}

// tracedRun measures the workload three ways: untraced at sweepParallelism
// (the timed runs' configuration), untraced at Parallelism 1, and replayed
// traced at Parallelism 1. The replay check requires all three to give the
// same points bit for bit; otherwise the layer numbers would describe other
// work, and none are reported.
func tracedRun(w workload, sp *spec, ref []point, spansPath string, stdout io.Writer) (result, error) {
	// The run has three stages; each counts as attempted when it starts.
	res := result{Metrics: map[string]metric{}}
	fail := func(stage string, err error) (result, error) {
		res.Failed++
		fmt.Fprintf(stdout, "%s: %s: %v; per-layer metrics invalid, not reported\n", sp.name, stage, err)
		return res, nil
	}

	res.Attempted++
	gc0, t0 := readGC(), time.Now()
	par, err := w.run(sweepParallelism)
	parWall, gc1 := time.Since(t0).Seconds(), readGC()
	if err == nil {
		err = checkOutcome(w, par.points, nil, ref)
	}
	if err != nil {
		return fail(fmt.Sprintf("run at parallelism %d", sweepParallelism), err)
	}

	res.Attempted++
	t0 = time.Now()
	one, err := w.run(1)
	p1 := time.Since(t0).Seconds()
	if err == nil {
		err = samePoints(one.points, par.points, false)
	}
	if err != nil {
		return fail("run at parallelism 1", err)
	}

	res.Attempted++
	tr := newTracer()
	var replayed []point
	err = tr.within("workload", func() error {
		var err error
		replayed, err = w.replay(tr)
		return err
	})
	if err == nil {
		err = samePoints(replayed, par.points, false)
	}
	if err != nil {
		return fail("replay", err)
	}
	doc, err := call(tr, "report.JSON", one.report)
	if err != nil {
		return fail("report", err)
	}
	if err := tr.write(spansPath); err != nil {
		return res, err
	}

	res.Correct = true
	res.Metrics = layerMetrics(layerInputs{
		spans: tr.spans, counts: tr.counts,
		p1S: p1, parWallS: parWall, gc0: gc0, gc1: gc1,
		jsonBytes: len(doc),
	})
	fmt.Fprintf(stdout, "%s: replay matches the untraced runs; %d spans in %s\n", sp.name, len(tr.spans), spansPath)
	printMetrics(stdout, res.Metrics)
	return res, nil
}

func sortedKeys(ms map[string]metric) []string {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
