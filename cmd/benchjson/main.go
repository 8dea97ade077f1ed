// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, keeping the raw benchmark lines alongside
// the parsed metrics so downstream tooling can either consume the JSON
// directly or reconstruct a benchstat-compatible input
// (jq -r '.benchmarks[].raw' BENCH_sweep.json | benchstat /dev/stdin).
//
// Usage:
//
//	go test -bench ... -benchmem | benchjson -out BENCH_sweep.json
//	benchjson -in BENCH_sweep.txt -out BENCH_sweep.json
//	benchjson compare -base BENCH_baseline.json -cur BENCH_sweep.json
//
// The compare subcommand prints every metric's delta against the baseline
// and exits non-zero when one of the stable rows (the BenchmarkFigure4Sweep
// and BenchmarkPetascalePoint pairs) more than doubles its allocs/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including the -<procs> suffix.
	Name string `json:"name"`
	// Runs is the iteration count chosen by the benchmark harness.
	Runs int64 `json:"runs"`
	// Metrics maps unit (ns/op, B/op, allocs/op, custom units like
	// events/rep) to value.
	Metrics map[string]float64 `json:"metrics"`
	// Raw is the unmodified output line, for benchstat reconstruction.
	Raw string `json:"raw"`
}

// Document is the top-level JSON schema.
type Document struct {
	// Goos, Goarch, Pkg, and CPU echo the `go test -bench` header lines.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Benchmarks holds one entry per benchmark result line, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	in := flag.String("in", "", "input file with go test -bench output (default stdin)")
	out := flag.String("out", "", "output JSON file (default stdout)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	doc, err := parse(r)
	if err != nil {
		log.Fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		log.Fatal("no benchmark result lines found in input")
	}
	text, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	text = append(text, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(text); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, text, 0o644); err != nil {
		log.Fatal(err)
	}
}

// parse reads go test -bench output: header key: value lines followed by
// benchmark result lines of the form
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   1 allocs/op
func parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchmarkLine(line)
			if err != nil {
				return nil, err
			}
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Duplicate benchmark names mean the input holds more than one run of the
	// same benchmark (-count > 1, or two concatenated bench passes). Tooling
	// downstream keys on the name, so a silent last-one-wins (or first-one-
	// wins) pick would misreport the perf trajectory; refuse instead.
	seen := make(map[string]bool, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		if seen[b.Name] {
			return nil, fmt.Errorf("duplicate benchmark name %q in input; run with -count=1 or split the inputs", b.Name)
		}
		seen[b.Name] = true
	}
	return doc, nil
}

// parseBenchmarkLine parses one result line into name, iteration count, and
// (value, unit) metric pairs.
func parseBenchmarkLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("malformed iteration count in %q: %w", line, err)
	}
	b := Benchmark{Name: fields[0], Runs: runs, Metrics: make(map[string]float64), Raw: line}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Benchmark{}, fmt.Errorf("odd metric fields in %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		value, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("malformed metric value %q in %q: %w", rest[i], line, err)
		}
		b.Metrics[rest[i+1]] = value
	}
	return b, nil
}
