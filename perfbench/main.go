// Command perfbench is the repository's benchmark. It runs one workload as a
// closed loop of back-to-back iterations for a fixed time, checks every
// iteration's outputs, and prints the end-to-end metrics; with -trace 1 it
// instead replays the workload once as traced calls into each layer and
// prints the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload figure4-sweep --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed of the committed reference values, and the
	// experiments' own default.
	defaultSeed = 1
	// sweepParallelism is the workloads' worker count for sweeps and
	// replications.
	sweepParallelism = 2
)

// timedSetup is one window of the timed run's set-ups. The run sets up in
// one window before its loop and in one after it; setup_s is the median
// over both, so a set-up of a few milliseconds gets thousands of repeats,
// and a slow moment of the host at the start of the run does not set it.
var timedSetup = setupWindow{repeats: 2, minTime: time.Second}

// setupWindow is a window of back-to-back set-ups: at least repeats of
// them, for at least minTime.
type setupWindow struct {
	repeats int
	minTime time.Duration
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: figure4-sweep, analytic-ladder or fig2-storage")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; 0 means the default seed")
	seconds := fs.Float64("seconds", 40, "how long the timed loop runs; it always completes one iteration")
	traced := fs.Int("trace", 0, "1 replays the workload traced and prints the per-layer metrics")
	spansDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	refDir := fs.String("write-reference", "", "write the workload's results at the default seed as its reference into this directory, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sp *spec
	for i := range workloads {
		if workloads[i].name == *name {
			sp = &workloads[i]
		}
	}
	if sp == nil || fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: -workload <name> [-seed n] [-seconds s] [-trace 0|1]\n")
		return 2
	}
	if *seed == 0 {
		*seed = defaultSeed
	}
	w := sp.make()
	if *refDir != "" {
		if err := saveReference(w, sp.name, *refDir); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	ref, err := referencePoints(sp.name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !sp.seedFree && *seed != defaultSeed {
		ref = nil
	}

	var res result
	if *traced == 1 {
		// The traced run reports no setup_s; it sets up once.
		if _, err := setup(w, *seed, setupWindow{repeats: 1}); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", sp.name, err)
			return 1
		}
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", sp.name, *seed))
		res, err = tracedRun(w, sp, ref, path, stdout)
	} else {
		res, err = timedRun(w, sp, ref, *seed, timedSetup, time.Duration(*seconds*float64(time.Second)), stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// setup runs one window of the workload's set-ups and returns their
// durations.
func setup(w workload, seed uint64, win setupWindow) ([]float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < win.repeats || time.Since(start) < win.minTime {
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return ds, nil
}

// checkOutcome applies every output check to one iteration's points: the
// workload's own checks, the [0, 1] range, bit-identity with the run's
// first iteration, and the committed reference where it applies.
func checkOutcome(w workload, ps, first, ref []point) error {
	if err := w.check(ps); err != nil {
		return err
	}
	if err := checkRange(ps); err != nil {
		return err
	}
	if first != nil {
		if err := samePoints(ps, first, false); err != nil {
			return fmt.Errorf("differs from the run's first iteration: %w", err)
		}
	}
	if ref != nil {
		if err := samePoints(ps, ref, true); err != nil {
			return fmt.Errorf("differs from the committed reference: %w", err)
		}
	}
	return nil
}

// usage is the process's cumulative CPU and heap allocation.
type usage struct {
	cpuS       float64
	allocBytes uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes is the process's cumulative heap allocation. Only the
// benchmark's main goroutine calls it.
func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return usage{
		cpuS:       float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9,
		allocBytes: allocatedBytes(),
	}
}

// peakRSSMB is the process's peak resident memory (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

// timedRun is the closed loop between two windows of set-ups: iterations
// back to back, each started only while the run time left is expected to
// hold it, judged by the median iteration so far, so a run never
// overshoots its time by a whole slow iteration. The first iteration
// always runs.
func timedRun(w workload, sp *spec, ref []point, seed uint64, win setupWindow, runFor time.Duration, stdout, stderr io.Writer) (result, error) {
	setups, err := setup(w, seed, win)
	if err != nil {
		return result{}, err
	}
	var wall, cpu, alloc []float64
	var first []point
	failed, attempted := 0, 0
	hw := 0.0
	loopStart := time.Now()
	for attempted == 0 || time.Since(loopStart)+time.Duration(median(wall)*float64(time.Second)) <= runFor {
		attempted++
		u0, t0 := readUsage(), time.Now()
		out, err := w.run(sweepParallelism)
		dt, u1 := time.Since(t0).Seconds(), readUsage()
		wall = append(wall, dt)
		cpu = append(cpu, u1.cpuS-u0.cpuS)
		alloc = append(alloc, float64(u1.allocBytes-u0.allocBytes)/1e6)
		if err == nil {
			err = checkOutcome(w, out.points, first, ref)
		}
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "perfbench: %s iteration %d: %v\n", sp.name, attempted, err)
			continue
		}
		if first == nil {
			first = out.points
			hw = maxHalfWidth(out.points, sp.headline)
		}
	}
	peakRSS := peakRSSMB()
	after, err := setup(w, seed, win)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, after...)
	q1, q2, q3 := quartiles(wall)
	fmt.Fprintf(stdout, "%s: %d iterations, %d failed (fail_frac %g)\n", sp.name, attempted, failed, float64(failed)/float64(attempted))
	fmt.Fprintf(stdout, "  wall_s median %.4g s, quartiles %.4g .. %.4g s over %d iterations\n", q2, q1, q3, len(wall))
	fmt.Fprintf(stdout, "  max_half_width %.6g (%s, 95%%)\n", hw, sp.headline)
	fmt.Fprintf(stdout, "  setup_s median of %d set-ups\n", len(setups))
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setups), "s"},
			"wall_s":      {q2, "s"},
			"cpu_s":       {median(cpu), "s"},
			"alloc_mb":    {median(alloc), "MB"},
			"peak_rss_mb": {peakRSS, "MB"},
		},
	}
	printMetrics(stdout, res.Metrics)
	return res, nil
}

func printMetrics(stdout io.Writer, ms map[string]metric) {
	for _, name := range sortedKeys(ms) {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// saveReference runs one iteration at the default seed and writes its
// points, once they pass the workload's own checks, as its reference.
func saveReference(w workload, name, dir string) error {
	if err := w.setup(defaultSeed); err != nil {
		return err
	}
	out, err := w.run(sweepParallelism)
	if err != nil {
		return err
	}
	if err := checkOutcome(w, out.points, nil, nil); err != nil {
		return err
	}
	return writeReference(dir, name, out.points)
}
