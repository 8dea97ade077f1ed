package sweep

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/abe"
)

// cachePoints mixes duplicate analytic configurations (MiniExponential
// certifies and solves) with a simulated point, so one sweep exercises the
// miss, hit, and refusal paths of the solve cache at once.
func cachePoints() []Point {
	return []Point{
		{Label: "mini-a", Config: abe.MiniExponential()},
		{Label: "abe-sim", Config: abe.ABE()},
		{Label: "mini-b", Config: abe.MiniExponential()},
		{Label: "mini-c", Config: abe.MiniExponential()},
	}
}

// solverCaches unmarshals the per-point solver cache labels from a sweep's
// JSON report.
func solverCaches(t *testing.T, res *Result) []string {
	t.Helper()
	text, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Points []struct {
			Solver struct {
				Method string `json:"method"`
				Cache  string `json:"cache"`
			} `json:"solver"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(text), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	labels := make([]string, len(doc.Points))
	for i, p := range doc.Points {
		labels[i] = p.Solver.Cache
	}
	return labels
}

func TestSweepCacheLabelsDuplicatePoints(t *testing.T) {
	res, err := Run(cachePoints(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The first holder of each fingerprint is the miss; later duplicates are
	// hits. The refused ABE point is computed (and cached) too.
	want := []string{CacheMiss, CacheMiss, CacheHit, CacheHit}
	got := make([]string, len(res.Points))
	for i, pt := range res.Points {
		got[i] = pt.Solver.Cache
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache labels = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(solverCaches(t, res), want) {
		t.Errorf("JSON cache labels = %v, want %v", solverCaches(t, res), want)
	}
	// A hit shares the miss's exact outcome: identical method, certificate,
	// and (seed aside) identical exact measures.
	a, b, c := res.Points[0], res.Points[2], res.Points[3]
	for _, dup := range []PointResult{b, c} {
		if dup.Solver.Method != a.Solver.Method {
			t.Errorf("duplicate point method %q != %q", dup.Solver.Method, a.Solver.Method)
		}
		if !reflect.DeepEqual(dup.Measures, a.Measures) {
			t.Errorf("duplicate point measures differ:\n%+v\n%+v", dup.Measures, a.Measures)
		}
	}
	if a.Solver.Method != MethodUniformization {
		t.Errorf("MiniExponential method = %q, want uniformization", a.Solver.Method)
	}
	if res.Points[1].Solver.Method != MethodSimulation {
		t.Errorf("ABE point method = %q, want simulation", res.Points[1].Solver.Method)
	}
}

func TestSweepCacheBitIdenticalAcrossParallelism(t *testing.T) {
	opts := testOpts()
	opts.Parallelism = 1
	seq, err := Run(cachePoints(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	par, err := Run(cachePoints(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Points, par.Points) {
		t.Error("cached sweep results differ across Parallelism")
	}
	seqJSON, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if seqJSON != parJSON {
		t.Error("cached sweep JSON differs across Parallelism")
	}
}

func TestSweepCacheForceSimulationUnlabeled(t *testing.T) {
	points := []Point{
		{Label: "analytic", Config: abe.MiniExponential()},
		{Label: "forced", Config: abe.MiniExponential(), ForceSimulation: true},
	}
	res, err := Run(points, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[0].Solver.Cache; got != CacheMiss {
		t.Errorf("analytic point cache = %q, want miss", got)
	}
	// A forced point does no cacheable solver work: no label in the result
	// and no cache field in its JSON (omitempty).
	if got := res.Points[1].Solver.Cache; got != "" {
		t.Errorf("forced point cache = %q, want empty", got)
	}
	if labels := solverCaches(t, res); labels[1] != "" {
		t.Errorf("forced point JSON cache = %q, want absent", labels[1])
	}
}

func TestSweepCacheFitTierKeysSeparately(t *testing.T) {
	// The same configuration under a different solver cascade (fit tolerance
	// enabled) must never be answered by the plain cascade's outcome: the
	// cache lives for one sweep, whose cascade is fixed, so the fitted sweep
	// computes its own answer and shares it only within itself.
	point := Point{Config: abe.MiniWeibull()}
	plain, err := Run([]Point{point}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Points[0].Solver.Method != MethodSimulation {
		t.Fatalf("plain cascade method = %q, want simulation", plain.Points[0].Solver.Method)
	}
	fit := testOpts()
	fit.PHFitTolerance = 0.1
	fitted, err := Run([]Point{point, point}, fit)
	if err != nil {
		t.Fatal(err)
	}
	if got := solverCaches(t, fitted); !reflect.DeepEqual(got, []string{CacheMiss, CacheHit}) {
		t.Errorf("fitted cascade cache labels = %v, want [miss hit]", got)
	}
	for i, pt := range fitted.Points {
		if pt.Solver.Method != MethodUniformizationApprox {
			t.Errorf("fitted point %d method = %q, want uniformization-approx", i, pt.Solver.Method)
		}
	}
}
