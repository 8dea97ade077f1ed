package main

import (
	"io"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU
BenchmarkA-8   	      10	 123456 ns/op	    2048 B/op	      12 allocs/op
BenchmarkB/sub-8   	       5	 234567 ns/op	     9.5 events/rep
PASS
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Pkg != "repro" || doc.CPU != "Test CPU" {
		t.Errorf("header wrong: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(doc.Benchmarks))
	}
	a := doc.Benchmarks[0]
	if a.Name != "BenchmarkA-8" || a.Runs != 10 || a.Metrics["ns/op"] != 123456 || a.Metrics["allocs/op"] != 12 {
		t.Errorf("benchmark A parsed wrong: %+v", a)
	}
	if b := doc.Benchmarks[1]; b.Metrics["events/rep"] != 9.5 {
		t.Errorf("custom metric parsed wrong: %+v", b)
	}
}

func TestParseRejectsDuplicateNames(t *testing.T) {
	dup := benchOutput + "BenchmarkA-8   \t      20\t 111111 ns/op\n"
	_, err := parse(strings.NewReader(dup))
	if err == nil {
		t.Fatal("duplicate benchmark names accepted")
	}
	if !strings.Contains(err.Error(), "BenchmarkA-8") {
		t.Errorf("error %q does not name the duplicate", err)
	}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	for _, line := range []string{
		"BenchmarkOnly",            // no iteration count
		"BenchmarkX-8 notanumber",  // bad count
		"BenchmarkX-8 3 12.5",      // value without unit
		"BenchmarkX-8 3 abc ns/op", // bad metric value
	} {
		if _, err := parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("malformed line %q accepted", line)
		}
	}
}

// compareDoc builds a document from name → allocs/op pairs plus a fixed
// ns/op, the shape `go test -bench -benchmem` output parses into.
func compareDoc(rows ...any) *Document {
	doc := &Document{}
	for i := 0; i < len(rows); i += 2 {
		doc.Benchmarks = append(doc.Benchmarks, Benchmark{
			Name:    rows[i].(string),
			Metrics: map[string]float64{"allocs/op": rows[i+1].(float64), "ns/op": 100},
		})
	}
	return doc
}

func TestCompareTable(t *testing.T) {
	base := compareDoc("BenchmarkA", 1000.0, "BenchmarkGone", 5.0)
	cur := compareDoc("BenchmarkA-4", 1500.0, "BenchmarkNew-4", 7.0)
	var out strings.Builder
	if err := compare(&out, base, cur, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BenchmarkA                                         allocs/op              1000           1500   +50.0%",
		"BenchmarkA                                         ns/op                   100            100    +0.0%",
		"BenchmarkGone                                      (missing from this run)",
		"BenchmarkNew                                       (new benchmark, no baseline)",
		"missing from the baseline (regenerate it): BenchmarkNew",
		"in the baseline but not this run (bench regex stale?): BenchmarkGone",
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("table lacks line %q:\n%s", want, out.String())
		}
	}
}

func TestCompareAllocGate(t *testing.T) {
	base := compareDoc("BenchmarkS/sharded", 1000.0, "BenchmarkS/per-config", 1000.0, "BenchmarkOther", 10.0)
	for _, tc := range []struct {
		name    string
		cur     *Document
		stable  []string
		wantErr string
	}{
		{"noise passes", compareDoc("BenchmarkS/sharded-2", 1999.0, "BenchmarkS/per-config-2", 500.0), []string{"BenchmarkS/sharded", "BenchmarkS/per-config"}, ""},
		{"doubling fails", compareDoc("BenchmarkS/sharded-2", 2001.0, "BenchmarkS/per-config-2", 1000.0), []string{"BenchmarkS/sharded", "BenchmarkS/per-config"}, "BenchmarkS/sharded: allocs/op"},
		{"undeclared rows are not gated", compareDoc("BenchmarkS/sharded-2", 1000.0, "BenchmarkOther-2", 1e6), []string{"BenchmarkS/sharded"}, ""},
		{"missing stable row fails", compareDoc("BenchmarkS/sharded-2", 1000.0), []string{"BenchmarkS/per-config"}, "BenchmarkS/per-config: allocs/op missing"},
	} {
		var out strings.Builder
		err := compare(&out, base, tc.cur, tc.stable)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected failure %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestMetricsByNameKeepsNumberedSubBenchmarks(t *testing.T) {
	// No shared procs suffix: names ending in a number stay whole.
	doc := compareDoc("BenchmarkR/replications-4", 1.0, "BenchmarkR/replications-16", 1.0, "BenchmarkQ", 1.0)
	got := metricsByName(doc)
	for _, name := range []string{"BenchmarkR/replications-4", "BenchmarkR/replications-16", "BenchmarkQ"} {
		if _, ok := got[name]; !ok {
			t.Errorf("%q lost its name: %v", name, sortedNames(got))
		}
	}
	// A shared procs suffix is removed once.
	doc = compareDoc("BenchmarkR/replications-4-2", 1.0, "BenchmarkQ-2", 1.0)
	got = metricsByName(doc)
	for _, name := range []string{"BenchmarkR/replications-4", "BenchmarkQ"} {
		if _, ok := got[name]; !ok {
			t.Errorf("%q not found after suffix removal: %v", name, sortedNames(got))
		}
	}
}

// TestBaselineCarriesStableRows runs the gate of the committed baseline
// against itself, so a baseline that lost a gated row, or whose names no
// longer line up with a fresh run's, fails here rather than in CI.
func TestBaselineCarriesStableRows(t *testing.T) {
	base, err := readDocument("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(io.Discard, base, base, stableRows); err != nil {
		t.Fatal(err)
	}
}
