package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/abe"
	"repro/internal/sweep"
)

// point is what the benchmark checks of one evaluated point: how it was
// answered and the mean and 95% half-width of every measure.
type point struct {
	Label     string    `json:"label"`
	Method    string    `json:"method,omitempty"`
	Cache     string    `json:"cache,omitempty"`
	Values    []value   `json:"values"`
	Reasons   []string  `json:"-"`
	FitBounds []float64 `json:"-"`
}

type value struct {
	Name      string  `json:"name"`
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
}

// outcome is one iteration's result: its points, and the workload's report
// call, timed separately by the traced run.
type outcome struct {
	points []point
	report func() (string, error)
}

// probabilities are the measures that must lie in [0, 1].
var probabilities = map[string]bool{
	abe.RewardStorageAvailability: true,
	abe.RewardCFSAvailability:     true,
	"cluster_utility":             true,
}

// sweepPoint reads a sweep point's measures in name order.
func sweepPoint(label string, m abe.Measures, s sweep.Solver) point {
	p := point{Label: label, Method: s.Method, Cache: s.Cache, Reasons: s.Reasons}
	if s.Certificate != nil {
		for _, f := range s.Certificate.Approximations {
			p.FitBounds = append(p.FitBounds, f.Bound)
		}
	}
	names := make([]string, 0, len(m.Intervals))
	for name := range m.Intervals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ci := m.Intervals[name]
		p.Values = append(p.Values, value{Name: name, Mean: ci.Mean, HalfWidth: ci.HalfWidth})
	}
	p.Values = append(p.Values, value{Name: "cluster_utility", Mean: m.ClusterUtility})
	return p
}

// checkRange reports a probability measure outside [0, 1] or a value that is
// not a finite number.
func checkRange(ps []point) error {
	for _, p := range ps {
		for _, v := range p.Values {
			if math.IsNaN(v.Mean) || math.IsInf(v.Mean, 0) || math.IsNaN(v.HalfWidth) || math.IsInf(v.HalfWidth, 0) {
				return fmt.Errorf("%s: %s is not finite (%v ± %v)", p.Label, v.Name, v.Mean, v.HalfWidth)
			}
			if probabilities[v.Name] && (v.Mean < 0 || v.Mean > 1) {
				return fmt.Errorf("%s: %s = %v lies outside [0, 1]", p.Label, v.Name, v.Mean)
			}
		}
	}
	return nil
}

// samePoints reports the first difference between two point lists. Floats
// must agree bit for bit; reasons and fit bounds are compared unless
// labelsOnly is set, which a committed reference needs because it records
// only labels, methods, cache labels and values.
func samePoints(got, want []point, labelsOnly bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Label != w.Label || g.Method != w.Method || g.Cache != w.Cache {
			return fmt.Errorf("point %d: %q %s/%s, want %q %s/%s", i, g.Label, g.Method, g.Cache, w.Label, w.Method, w.Cache)
		}
		if len(g.Values) != len(w.Values) {
			return fmt.Errorf("%s: %d values, want %d", g.Label, len(g.Values), len(w.Values))
		}
		for j, gv := range g.Values {
			wv := w.Values[j]
			if gv.Name != wv.Name ||
				math.Float64bits(gv.Mean) != math.Float64bits(wv.Mean) ||
				math.Float64bits(gv.HalfWidth) != math.Float64bits(wv.HalfWidth) {
				return fmt.Errorf("%s: %s = %v ± %v, want %s = %v ± %v", g.Label, gv.Name, gv.Mean, gv.HalfWidth, wv.Name, wv.Mean, wv.HalfWidth)
			}
		}
		if labelsOnly {
			continue
		}
		if fmt.Sprint(g.Reasons) != fmt.Sprint(w.Reasons) {
			return fmt.Errorf("%s: reasons %q, want %q", g.Label, g.Reasons, w.Reasons)
		}
		if fmt.Sprint(g.FitBounds) != fmt.Sprint(w.FitBounds) {
			return fmt.Errorf("%s: fit bounds %v, want %v", g.Label, g.FitBounds, w.FitBounds)
		}
	}
	return nil
}

// maxHalfWidth is the largest 95% half-width of the named measure.
func maxHalfWidth(ps []point, name string) float64 {
	hw := 0.0
	for _, p := range ps {
		for _, v := range p.Values {
			if v.Name == name {
				hw = math.Max(hw, v.HalfWidth)
			}
		}
	}
	return hw
}

// The committed reference values: one file per workload, at defaultSeed.
//
//go:embed reference/*.json
var referenceFS embed.FS

func referencePoints(workload string) ([]point, error) {
	b, err := referenceFS.ReadFile("reference/" + workload + ".json")
	if err != nil {
		return nil, err
	}
	var ps []point
	if err := json.Unmarshal(b, &ps); err != nil {
		return nil, fmt.Errorf("reference %s: %w", workload, err)
	}
	return ps, nil
}

// writeReference saves ps as the workload's reference under dir. It is for
// a deliberate change of the program's results, which the change must state.
func writeReference(dir, workload string, ps []point) error {
	b, err := json.MarshalIndent(ps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), append(b, '\n'), 0o644)
}
