package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/san"
)

// TestAnalyzeFigure4: every sweep point reports its lumpability verdicts,
// each distinct design variant carries one structural report, and the whole
// study analyzes clean.
func TestAnalyzeFigure4(t *testing.T) {
	a, err := AnalyzeExperiment("figure4", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Clean {
		t.Fatalf("figure4 configurations must analyze clean:\n%s", a.Render())
	}
	factors := Figure4ScaleFactors(true)
	if len(a.Configs) != 2*len(factors)+2 {
		t.Fatalf("got %d configs, want %d (base+spare per factor, plus the two solver cross-checks)",
			len(a.Configs), 2*len(factors)+2)
	}
	var reports int
	for _, ca := range a.Configs {
		if len(ca.Verdicts) != 4 {
			t.Fatalf("config %q has %d verdicts, want 4", ca.Label, len(ca.Verdicts))
		}
		if ca.Report != nil {
			reports++
			if !ca.Report.Clean {
				t.Fatalf("config %q structural report not clean:\n%s", ca.Label, ca.Report.Render())
			}
			if ca.Certificate == nil {
				t.Fatalf("config %q has a structural report but no solver certificate", ca.Label)
			}
		}
	}
	if reports != 4 {
		t.Fatalf("got %d structural reports, want 4 (base, spare, and the two cross-check variants)", reports)
	}
	// The first base and spare points carry the reports (reference scale).
	if a.Configs[0].Report == nil || a.Configs[1].Report == nil {
		t.Fatal("reference-scale points must carry the structural reports")
	}
	if a.Configs[2].Report != nil {
		t.Fatal("scaled repeats must omit the structural report")
	}
	// The plain ABE model is refused (non-memoryless repairs); the
	// exponential cross-check model is certified for the solver.
	if a.Configs[0].Certificate.Certified() {
		t.Fatal("plain ABE model must be refused by the solver tier")
	}
	if len(a.Configs[0].Certificate.Refusals) == 0 {
		t.Fatal("refused certificate must carry structured refusal reasons")
	}
	cross := a.Configs[len(a.Configs)-2]
	if cross.Certificate == nil || !cross.Certificate.Certified() {
		t.Fatalf("cross-check model must certify, got %+v", cross.Certificate)
	}
	// The Erlang cross-check model is refused as written and certified only
	// through the phase expansion, which the certificate records.
	erlang := a.Configs[len(a.Configs)-1]
	if erlang.Certificate == nil || !erlang.Certificate.Certified() {
		t.Fatalf("Erlang cross-check model must certify after expansion, got %+v", erlang.Certificate)
	}
	if len(erlang.Certificate.Expansions) == 0 {
		t.Fatalf("Erlang certificate must record the expansion evidence: %+v", erlang.Certificate)
	}
	if !strings.Contains(a.Render(), "solver certificate: certified") {
		t.Fatal("rendered analysis must show the certified solver certificate")
	}
	if !strings.Contains(a.Render(), "after phase expansion") {
		t.Fatal("rendered analysis must surface the certified-after-expansion summary")
	}
}

// TestAnalyzeDefaultExperiment: experiments without their own sweep configs
// are analyzed against the ABE reference composition, flat and lumped.
func TestAnalyzeDefaultExperiment(t *testing.T) {
	a, err := AnalyzeExperiment("table1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Configs) != 2 || !a.Clean {
		t.Fatalf("unexpected default analysis: %+v", a)
	}
	for _, ca := range a.Configs {
		if ca.Report == nil {
			t.Fatalf("config %q missing structural report", ca.Label)
		}
	}
}

// TestAnalysisJSONAndRender: the analysis marshals with the documented keys
// and renders the family verdict lines abesim prints.
func TestAnalysisJSONAndRender(t *testing.T) {
	a, err := AnalyzeExperiment("figure4", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"experiment"`, `"configs"`, `"clean"`, `"verdicts"`, `"report"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("JSON missing %s", key)
		}
	}
	text := a.Render()
	for _, want := range []string{"static analysis (figure4):", "families:", "oss_pairs", "clean: true"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

// TestAnalyzeCertificateMatchesSweep: the -analyze report and the sweep reach
// the certificate through the same cascade, so for every figure4 design
// variant the analysis certificate equals the Solver.Certificate of the same
// configuration in Figure4Sweep — refused as built (base, spare OSS),
// certified as built (exponential cross-check) and certified only after
// phase expansion (Erlang cross-check).
func TestAnalyzeCertificateMatchesSweep(t *testing.T) {
	opts := Options{Quick: true, Replications: 4, MissionHours: 2190}
	a, err := AnalyzeExperiment("figure4", opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure4Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	swept := map[string]*san.Certificate{}
	for _, pt := range res.Points {
		swept[pt.Label] = pt.Solver.Certificate
	}
	compared := 0
	for _, ca := range a.Configs {
		if ca.Certificate == nil {
			continue
		}
		got, ok := swept[ca.Label]
		if !ok || got == nil {
			t.Fatalf("variant %q: no sweep certificate for the same label", ca.Label)
		}
		if !reflect.DeepEqual(ca.Certificate, got) {
			t.Errorf("variant %q: analysis certificate\n%+v\ndiffers from the sweep's\n%+v", ca.Label, ca.Certificate, got)
		}
		compared++
	}
	if compared != 4 {
		t.Fatalf("compared %d variants, want 4 (base, spare OSS, exponential and Erlang cross-checks)", compared)
	}
	if erlang := a.Configs[len(a.Configs)-1].Certificate; len(erlang.Expansions) == 0 {
		t.Fatalf("the Erlang variant must be compared on its expanded certificate: %+v", erlang)
	}
}
