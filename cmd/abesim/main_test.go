package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// smokeInterval is one confidence interval of a sweep point in the report.
type smokeInterval struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
}

// smokePoint is the part of a sweep point the figure4 smoke checks read.
type smokePoint struct {
	Label               string  `json:"label"`
	CFSAvailability     float64 `json:"cfs_availability"`
	StorageAvailability float64 `json:"storage_availability"`
	Solver              struct {
		Method      string   `json:"method"`
		Reasons     []string `json:"reasons"`
		Certificate *struct {
			Expansions     []string `json:"expansions"`
			Approximations []struct {
				Bound     float64 `json:"bound"`
				Tolerance float64 `json:"tolerance"`
			} `json:"approximations"`
		} `json:"certificate"`
	} `json:"solver"`
	Intervals map[string]smokeInterval `json:"intervals"`
}

// value returns the point's headline measure of the given name.
func (p smokePoint) value(name string) float64 {
	if name == "cfs_availability" {
		return p.CFSAvailability
	}
	return p.StorageAvailability
}

// figure4AnalyzeDocument builds the document `abesim -experiment figure4
// -quick -replications 4 -mission 2190 -analyze -json` prints.
func figure4AnalyzeDocument(t *testing.T) string {
	t.Helper()
	opts := experiments.Options{Quick: true, Replications: 4, MissionHours: 2190}
	artifact, err := experiments.RunArtifact("figure4", opts)
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := experiments.AnalyzeExperiment("figure4", opts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := artifact.JSON()
	if err != nil {
		t.Fatal(err)
	}
	doc, err = withAnalysis(doc, analysis)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// pointsWith returns the points whose label contains every given fragment.
func pointsWith(points []smokePoint, fragments ...string) []smokePoint {
	var out []smokePoint
	for _, p := range points {
		matches := true
		for _, f := range fragments {
			matches = matches && strings.Contains(p.Label, f)
		}
		if matches {
			out = append(out, p)
		}
	}
	return out
}

// checkAgreement asserts that the analytic point is exact and lands inside
// its simulated twin's confidence interval widened by slack, for both
// availability measures. A twin interval of zero width carries no
// information (the few quick replications never saw the rare event) and is
// skipped; the 60-replication cross-check tests in internal/experiments
// cover it.
func checkAgreement(t *testing.T, kind string, analytic, twin smokePoint, slack float64) {
	t.Helper()
	for _, name := range []string{"cfs_availability", "storage_availability"} {
		ci := twin.Intervals[name]
		if hw := analytic.Intervals[name].HalfWidth; hw != 0 {
			t.Errorf("%s %s: analytic answer must be exact, half-width %v", kind, name, hw)
		}
		if ci.HalfWidth == 0 {
			continue
		}
		if diff := math.Abs(analytic.value(name) - ci.Mean); diff > ci.HalfWidth+slack {
			t.Errorf("%s %s: analytic %v vs simulated %v +/- %v + bound %v",
				kind, name, analytic.value(name), ci.Mean, ci.HalfWidth, slack)
		}
	}
}

// TestFigure4AnalyzeSmoke checks the figure4 -analyze -json document: one
// valid JSON document with a clean analysis section and certificates, a
// solver section on every point, and the three solver cross-checks — plain
// uniformization, uniformization after phase expansion, and approximate
// uniformization after fitting — each agreeing with its simulated twin.
func TestFigure4AnalyzeSmoke(t *testing.T) {
	doc := figure4AnalyzeDocument(t)
	if !json.Valid([]byte(doc)) {
		t.Fatal("figure4 -analyze -json is not one valid JSON document")
	}
	for _, want := range []string{
		`"analysis"`, `"clean": true`, `"certificate"`,
		`"solver"`, `"uniformization"`, `"uniformization-approx"`, `"approximations"`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document has no %s", want)
		}
	}
	var parsed struct {
		Points   []smokePoint `json:"points"`
		Analysis struct {
			Clean bool `json:"clean"`
		} `json:"analysis"`
	}
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatal(err)
	}
	if !parsed.Analysis.Clean {
		t.Error("analysis section is not clean")
	}
	points := parsed.Points

	var analytic, refused []smokePoint
	for _, p := range points {
		switch p.Solver.Method {
		case "":
			t.Errorf("point %q has no solver section", p.Label)
		case "uniformization":
			analytic = append(analytic, p)
		case "simulation":
			refused = append(refused, p)
		}
	}
	if len(analytic) == 0 {
		t.Fatal("no analytically solved point in the figure4 sweep")
	}
	for _, p := range refused {
		if len(p.Solver.Reasons) == 0 {
			t.Errorf("simulated point %q without recorded reasons", p.Label)
		}
	}
	twins := pointsWith(points, "[simulated twin]")
	if len(twins) == 0 {
		t.Fatal("cross-check twin missing from the figure4 sweep")
	}
	if twins[0].Intervals["cfs_availability"].HalfWidth <= 0 {
		t.Error("twin CFS interval is degenerate")
	}
	checkAgreement(t, "solver cross-check", analytic[0], twins[0], 0)

	// Phase expansion: the Erlang-repair mini config is refused as written,
	// certified after san.ExpandPhases (evidence in the certificate's
	// expansions) and answered analytically.
	erlA := pointsWith(points, "Erlang repair", "[solver cross-check]")
	erlT := pointsWith(points, "Erlang repair", "[simulated twin]")
	if len(erlA) == 0 || len(erlT) == 0 {
		t.Fatal("Erlang expansion cross-check pair missing")
	}
	ea := erlA[0]
	if ea.Solver.Method != "uniformization" {
		t.Errorf("Erlang point solved by %q, want uniformization after expansion", ea.Solver.Method)
	}
	if ea.Solver.Certificate == nil || len(ea.Solver.Certificate.Expansions) == 0 {
		t.Error("Erlang certificate must record the phase expansion evidence")
	}
	checkAgreement(t, "phase-expansion cross-check", ea, erlT[0], 0)

	// Approximate fit: the Weibull-disk mini config has no exact phase
	// form and is answered through the certified fitting tier, within its
	// twin's interval widened by the largest certified bound.
	weiA := pointsWith(points, "Weibull disks", "[solver cross-check]")
	weiT := pointsWith(points, "Weibull disks", "[simulated twin]")
	if len(weiA) == 0 || len(weiT) == 0 {
		t.Fatal("Weibull fit cross-check pair missing")
	}
	wa := weiA[0]
	if wa.Solver.Method != "uniformization-approx" {
		t.Errorf("Weibull point solved by %q, want uniformization-approx after fitting", wa.Solver.Method)
	}
	if wa.Solver.Certificate == nil || len(wa.Solver.Certificate.Approximations) == 0 {
		t.Fatal("Weibull certificate must record the fit evidence")
	}
	bound := 0.0
	for _, ev := range wa.Solver.Certificate.Approximations {
		if !(0 < ev.Bound && ev.Bound <= ev.Tolerance && ev.Tolerance <= 0.1) {
			t.Errorf("fit bound %v not in (0, tolerance %v <= 0.1]", ev.Bound, ev.Tolerance)
		}
		bound = math.Max(bound, ev.Bound)
	}
	checkAgreement(t, "approximate-fit cross-check", wa, weiT[0], bound)
}
