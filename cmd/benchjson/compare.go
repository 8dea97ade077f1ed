package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// maxAllocGrowth is how many times its baseline allocs/op a stable row may
// reach before compare fails. Allocation counts barely move between runs
// (unlike wall times on a shared CI machine), so a doubling is a real
// regression, not noise.
const maxAllocGrowth = 2

// stableRows are the benchmarks whose allocs/op compare gates: the Figure 4
// sweep pair, whose pre-pass must stay O(model).
var stableRows = []string{"BenchmarkFigure4Sweep/sharded", "BenchmarkFigure4Sweep/per-config"}

// runCompare implements `benchjson compare`: it prints the per-metric deltas
// of a bench run against the committed baseline and fails when one of the
// stableRows more than doubles its allocs/op.
func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("base", "BENCH_baseline.json", "baseline JSON document")
	curPath := fs.String("cur", "BENCH_sweep.json", "current JSON document")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base, err := readDocument(*basePath)
	if err != nil {
		return err
	}
	cur, err := readDocument(*curPath)
	if err != nil {
		return err
	}
	return compare(stdout, base, cur, stableRows)
}

func readDocument(path string) (*Document, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(text, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// metricsByName indexes a document's benchmarks by name with the -<procs>
// suffix go test appends removed, so runs at different GOMAXPROCS compare.
// The suffix is recognised only when every name carries the same one, which
// keeps sub-benchmark names that end in a number (replications-4) intact.
func metricsByName(doc *Document) map[string]map[string]float64 {
	suffix := ""
	for i, b := range doc.Benchmarks {
		at := strings.LastIndexByte(b.Name, '-')
		s := ""
		if at >= 0 && isDigits(b.Name[at+1:]) {
			s = b.Name[at:]
		}
		if i == 0 {
			suffix = s
		} else if s != suffix {
			suffix = ""
			break
		}
	}
	out := make(map[string]map[string]float64, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		out[strings.TrimSuffix(b.Name, suffix)] = b.Metrics
	}
	return out
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compare writes the delta of every metric the two documents share, calls
// out benchmarks present on one side only, and returns an error naming
// every stable row that is missing or whose allocs/op exceed maxAllocGrowth
// times the baseline.
func compare(w io.Writer, baseDoc, curDoc *Document, stable []string) error {
	base, cur := metricsByName(baseDoc), metricsByName(curDoc)
	all := make(map[string]bool, len(base)+len(cur))
	for n := range base {
		all[n] = true
	}
	for n := range cur {
		all[n] = true
	}
	fmt.Fprintf(w, "%-50s %-12s %14s %14s %8s\n", "benchmark", "metric", "baseline", "current", "delta")
	var noBaseline, notRun []string
	for _, name := range sortedNames(all) {
		b, inBase := base[name]
		c, inCur := cur[name]
		if !inBase {
			fmt.Fprintf(w, "%-50s (new benchmark, no baseline)\n", name)
			noBaseline = append(noBaseline, name)
			continue
		}
		if !inCur {
			fmt.Fprintf(w, "%-50s (missing from this run)\n", name)
			notRun = append(notRun, name)
			continue
		}
		metrics := make(map[string]bool, len(b)+len(c))
		for m := range b {
			metrics[m] = true
		}
		for m := range c {
			metrics[m] = true
		}
		for _, m := range sortedNames(metrics) {
			bv, okB := b[m]
			cv, okC := c[m]
			if !okB || !okC || bv == 0 {
				continue
			}
			fmt.Fprintf(w, "%-50s %-12s %14.4g %14.4g %+7.1f%%\n", name, m, bv, cv, 100*(cv-bv)/bv)
		}
	}
	// Name every benchmark missing from either side, so a stale baseline or
	// a benchmark dropped from the bench regex is called out instead of
	// quietly shrinking the comparison.
	if len(noBaseline) > 0 {
		fmt.Fprintf(w, "missing from the baseline (regenerate it): %s\n", strings.Join(noBaseline, ", "))
	}
	if len(notRun) > 0 {
		fmt.Fprintf(w, "in the baseline but not this run (bench regex stale?): %s\n", strings.Join(notRun, ", "))
	}
	fmt.Fprintln(w, "note: 1x-benchtime runs are noisy; only the stable rows' allocs/op are gated")

	var failures []string
	for _, name := range stable {
		b, c := base[name]["allocs/op"], cur[name]["allocs/op"]
		switch {
		case b == 0 || c == 0:
			failures = append(failures, fmt.Sprintf("%s: allocs/op missing from the baseline or this run", name))
		case c > maxAllocGrowth*b:
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.4g is more than %dx the baseline %.4g", name, c, maxAllocGrowth, b))
		default:
			fmt.Fprintf(w, "gate ok: %s allocs/op %.4g (baseline %.4g)\n", name, c, b)
		}
	}
	if len(failures) > 0 {
		return errors.New("allocation gate failed:\n  " + strings.Join(failures, "\n  "))
	}
	return nil
}
