package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// Expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), the rule the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{3.1, 1.2, 5.5, 4.0, 2.2, 9.9, 7.7, 6.1, 8.0, 0.5}, 1.9500000000000002, 4.75, 7.775},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3}, 1, 3, 4},
		{[]float64{5, 1, 2, 4, 3}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.q2 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.q2)
		}
	}
	if q1, q2, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(q2) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v, %v, %v; want NaN", q1, q2, q3)
	}
}

// A span's self time and self allocation exclude its direct children only;
// a grandchild is charged to its own parent.
func TestSelfCostsNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNS: 0, EndNS: 100, AllocStart: 0, AllocEnd: 1000},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40, AllocStart: 100, AllocEnd: 400},
		{Name: "leaf", Parent: 1, StartNS: 20, EndNS: 30, AllocStart: 150, AllocEnd: 250},
		{Name: "leaf", Parent: 0, StartNS: 50, EndNS: 90, AllocStart: 500, AllocEnd: 900},
	}
	got := selfCosts(spans)
	want := map[string]selfCost{
		"root": {Seconds: 30e-9, Bytes: 300, Calls: 1},
		"a":    {Seconds: 20e-9, Bytes: 200, Calls: 1},
		"leaf": {Seconds: 50e-9, Bytes: 500, Calls: 2},
	}
	for name, w := range want {
		g := got[name]
		if math.Abs(g.Seconds-w.Seconds) > 1e-18 || g.Bytes != w.Bytes || g.Calls != w.Calls {
			t.Errorf("%s: self %+v, want %+v", name, g, w)
		}
	}
}

// The tracer nests spans by call order and attributes them to the current
// point.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	err := tr.within("sweep", func() error {
		return tr.forPoint(3, func() error {
			_, err := call(tr, "san.Compile", func() (int, error) { return 0, nil })
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 2 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 ||
		tr.spans[0].Point != -1 || tr.spans[1].Point != 3 || tr.spans[1].EndNS < tr.spans[1].StartNS {
		t.Fatalf("spans %+v", tr.spans)
	}
	var none *tracer
	if _, err := call(none, "x", func() (int, error) { return 1, nil }); err != nil || none.begin("y") != -1 {
		t.Fatal("a nil tracer must run calls untraced")
	}
}

func TestDerivedRatios(t *testing.T) {
	spans := []span{
		{Name: "workload", Parent: -1, StartNS: 0, EndNS: 10e9},
		{Name: "prepass", Parent: 0, StartNS: 0, EndNS: 8e9},
		{Name: "san.Fingerprint", Parent: 1, StartNS: 0, EndNS: 5e9},
		{Name: "san.ExpandPhases", Parent: 1, StartNS: 5e9, EndNS: 7e9},
		{Name: "san.Run", Parent: 0, StartNS: 8e9, EndNS: 9e9},
		{Name: "report.JSON", Parent: -1, StartNS: 10e9, EndNS: 10.5e9},
	}
	ms := layerMetrics(layerInputs{
		spans:    spans,
		counts:   map[string]float64{"sweep.hits": 1, "sweep.keyed": 4, "sweep.analytic": 3, "sweep.certify_attempts": 3, "san.sim_events": 500},
		p1S:      9,
		parWallS: 6,
		gc0:      gcUsage{cycles: 10, gcCPU: 1, userCPU: 2, scavengeCPU: 0},
		gc1:      gcUsage{cycles: 25, gcCPU: 4, userCPU: 7, scavengeCPU: 1},
	})
	for name, want := range map[string]float64{
		"sweep.speedup":         1.5,  // 9 s at parallelism 1 over 6 s at 2
		"sweep.prepass_share":   0.8,  // 8 s of the 10 s replay
		"sweep.cache_hit_ratio": 0.25, // 1 hit of 4 keyed points
		"sweep.analytic_ratio":  1,
		"runtime.gc_cpu_share":  3.0 / 9.0, // 3 s of GC in 9 busy CPU seconds
		"runtime.gc_cycles":     15,
		"san.fingerprint_s":     5,
		"san.expand_s":          2,
		"san.sim_s":             1,
		"san.events_per_s":      500,
		"report.json_s":         0.5,
		"sweep.overhead_s":      1, // 9 s minus 8 s of layer self time
		"trace.overhead_s":      1, // 10 s traced minus 9 s untraced
		"statespace.solve_s":    0, // not run
		"sweep.p1_s":            9,
	} {
		if got := ms[name].Value; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	empty := layerMetrics(layerInputs{counts: map[string]float64{}})
	for _, name := range []string{"sweep.cache_hit_ratio", "sweep.analytic_ratio", "san.events_per_s", "sweep.prepass_share", "sweep.speedup", "runtime.gc_cpu_share"} {
		if v := empty[name].Value; v != 0 {
			t.Errorf("%s over no work = %v, want 0", name, v)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints, with
// the same units, and exactly its workloads.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bench struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var specs []string
	for _, s := range workloads {
		specs = append(specs, s.name)
	}
	if !equal(names, specs) {
		t.Errorf("workloads %v, program has %v", names, specs)
	}
	var e2e, prog []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	timed := mustTimedRun(t, &fakeWorkload{}, 0)
	for name, m := range timed.Metrics {
		prog = append(prog, name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(prog)
	if !equal(e2e, prog) {
		t.Errorf("end_to_end %v, program has %v", e2e, prog)
	}
	var layer []string
	for _, m := range bench.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	prog = nil
	for name, m := range layerMetrics(layerInputs{counts: map[string]float64{}}) {
		prog = append(prog, name+" "+m.Unit)
	}
	sort.Strings(layer)
	sort.Strings(prog)
	if !equal(layer, prog) {
		t.Errorf("per_layer %v\nprogram has %v", layer, prog)
	}
}

// fakeWorkload returns one fixed point, and a different value from its
// third run on when drift is set.
type fakeWorkload struct {
	runs  int
	drift bool
}

func (f *fakeWorkload) setup(uint64) error { return nil }

func (f *fakeWorkload) run(int) (outcome, error) {
	f.runs++
	v := 0.5
	if f.drift && f.runs >= 3 {
		v = 0.25
	}
	return outcome{points: []point{{Label: "p", Values: []value{{Name: "cfs_availability", Mean: v}}}}}, nil
}

func (f *fakeWorkload) replay(*tracer) ([]point, error) { return nil, nil }
func (f *fakeWorkload) check([]point) error             { return nil }

// Every iteration whose points differ from the run's first fails, and the
// run is then not correct.
func TestTimedRunCountsFailures(t *testing.T) {
	res := mustTimedRun(t, &fakeWorkload{drift: true}, 50*time.Millisecond)
	if res.Attempted < 3 || res.Failed != res.Attempted-2 || res.Correct {
		t.Fatalf("attempted %d, failed %d, correct %v; want the 3rd iteration on to fail", res.Attempted, res.Failed, res.Correct)
	}
	ok := mustTimedRun(t, &fakeWorkload{}, 0)
	if ok.Attempted != 1 || ok.Failed != 0 || !ok.Correct {
		t.Fatalf("attempted %d, failed %d, correct %v; want one correct iteration", ok.Attempted, ok.Failed, ok.Correct)
	}
}

// mustTimedRun runs w's timed loop for runFor with one set-up per window.
func mustTimedRun(t *testing.T, w workload, runFor time.Duration) result {
	t.Helper()
	res, err := timedRun(w, &spec{name: "fake"}, nil, 1, setupWindow{repeats: 1}, runFor, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
