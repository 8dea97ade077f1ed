package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (plus the ablations listed in DESIGN.md). Each benchmark
// regenerates the corresponding artifact end to end — log generation and
// analysis for Tables 1-4, model construction for Figure 1, and replicated
// Monte Carlo simulation for Figures 2-4 — using the Quick experiment
// options so a full `go test -bench=.` pass stays tractable. The rendered
// outputs (the rows/series the paper reports) are recorded in
// EXPERIMENTS.md; these benchmarks measure the cost of regenerating them and
// guard against regressions in the pipeline.

import (
	"testing"

	"repro/internal/abe"
	"repro/internal/experiments"
	"repro/internal/raid"
	"repro/internal/san"
	"repro/internal/statespace"
	"repro/internal/sweep"
)

// benchOptions keeps per-iteration cost bounded: quick sweeps, few
// replications, half-year missions for the heavier composed-model studies.
func benchOptions() experiments.Options {
	return experiments.Options{Quick: true, Replications: 8, MissionHours: 4380, Seed: 1}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	opts := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(name, opts)
		if err != nil {
			b.Fatalf("experiment %s: %v", name, err)
		}
		if out == "" {
			b.Fatalf("experiment %s produced no output", name)
		}
	}
}

// BenchmarkTable1OutageLog regenerates Table 1 (Lustre-FS outage list and
// availability) from synthetic SAN logs.
func BenchmarkTable1OutageLog(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2MountFailures regenerates Table 2 (per-day Lustre mount
// failures reported by compute nodes).
func BenchmarkTable2MountFailures(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3JobStats regenerates Table 3 (job execution statistics).
func BenchmarkTable3JobStats(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4DiskSurvival regenerates Table 4 (disk failure log and the
// censored Weibull survival fit).
func BenchmarkTable4DiskSurvival(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5ParameterSpace regenerates Table 5 (model parameters for
// the ABE and petascale configurations).
func BenchmarkTable5ParameterSpace(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkFigure1ModelComposition builds and validates the composed
// replicate/join CFS model (Figure 1).
func BenchmarkFigure1ModelComposition(b *testing.B) { runExperiment(b, "figure1") }

// BenchmarkFigure2StorageAvailability regenerates Figure 2 (storage
// availability versus storage size for several disk/RAID configurations).
func BenchmarkFigure2StorageAvailability(b *testing.B) { runExperiment(b, "figure2") }

// BenchmarkFigure3DiskReplacement regenerates Figure 3 (disks replaced per
// week versus number of disks for several AFRs).
func BenchmarkFigure3DiskReplacement(b *testing.B) { runExperiment(b, "figure3") }

// BenchmarkFigure4AvailabilityAndCU regenerates Figure 4 (storage/CFS
// availability, cluster utility, and the spare-OSS alternative versus scale).
func BenchmarkFigure4AvailabilityAndCU(b *testing.B) { runExperiment(b, "figure4") }

// BenchmarkAblationCorrelation sweeps the correlated-failure propagation
// probability at petascale (the design factor the paper blames for the CFS
// availability drop).
func BenchmarkAblationCorrelation(b *testing.B) { runExperiment(b, "ablation-correlation") }

// BenchmarkAblationAnalyticVsSim cross-checks the SAN simulation against the
// analytic birth-death tier model for exponential disks.
func BenchmarkAblationAnalyticVsSim(b *testing.B) { runExperiment(b, "ablation-analytic") }

// BenchmarkExtensionCheckpoint runs the future-work extension: the
// checkpoint/restart efficiency implied by the measured CFS dependability at
// ABE and petascale sizes.
func BenchmarkExtensionCheckpoint(b *testing.B) { runExperiment(b, "extension-checkpoint") }

// BenchmarkFigure4Sweep compares the two ways of running the Figure 4
// scaling study at equal replication counts and identical per-point seeds:
// "sharded" schedules every (configuration, replication) job of the whole
// sweep over one shared worker pool with per-configuration cached models and
// simulators (internal/sweep), while "per-config" evaluates each point with
// its own abe.Evaluate — a fresh pool, model, and simulator set per
// configuration. Both produce bit-identical measures; the benchmark isolates
// the scheduling and caching win.
func BenchmarkFigure4Sweep(b *testing.B) {
	opts := san.Options{Mission: 2190, Replications: 8, Seed: 1}
	figure4Points := func() []sweep.Point {
		return experiments.Figure4Points(opts.Seed, experiments.Figure4ScaleFactors(true))
	}
	b.Run("sharded", func(b *testing.B) {
		points := figure4Points()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sweep.Run(points, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Points) != len(points) {
				b.Fatalf("points = %d, want %d", len(res.Points), len(points))
			}
		}
	})
	b.Run("per-config", func(b *testing.B) {
		points := figure4Points()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pt := range points {
				ptOpts := opts
				ptOpts.Seed = pt.Seed
				if _, err := abe.Evaluate(pt.Config, ptOpts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPetascalePoint measures the largest Figure 4 point — the x10
// petascale configuration, 81 OSS pairs / 20 DDN units / 4800 disks — in
// its exponential-forms variant (Table 5's rate parameters taken
// literally), evaluated flat and lumped. The two representations are
// stochastically equivalent (strong lumpability; pinned by
// abe.TestLumpedBuildMatchesFlat and the closed-form exponential
// availability checks), but the lumped model replaces ~11k per-component
// places/activities with a few dozen counted populations: the acceptance
// target is >= 3x wall-clock and a materially lower events/rep metric.
// Weibull-aged disks (the default petascale disk model) have no exact
// lumping and always run flat — that regime is covered by the other
// benchmarks.
func BenchmarkPetascalePoint(b *testing.B) {
	base := abe.Petascale().WithExponentialForms()
	opts := san.Options{Mission: 8760, Replications: 4, Seed: 1}
	for _, tc := range []struct {
		name string
		cfg  abe.Config
	}{
		{"flat", base},
		{"lumped", base.WithLumping(true)},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var events, reps uint64
			for i := 0; i < b.N; i++ {
				model := san.NewModel(tc.cfg.Name)
				mp, err := abe.Build(model, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				study, err := san.RunReplications(model, mp.Rewards(), opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := abe.MeasuresFromStudy(tc.cfg, study); err != nil {
					b.Fatal(err)
				}
				events += study.TotalEvents
				reps += uint64(opts.Replications)
			}
			b.ReportMetric(float64(events)/float64(reps), "events/rep")
		})
	}
}

// BenchmarkSolverVsSimulation measures the two tiers the sweep engine now
// selects between on the exponential-forms figure4 cross-check point (the
// largest configuration whose composed model passes the structural
// certificate): "uniformization" runs certification plus the exact transient
// solve end to end through sweep.Run, "simulation" forces the same model
// through a full 60-replication study. The comparison is at unequal
// accuracy: the solver's answer is exact (zero variance), while 60
// replications leave a ~4e-2 CFS-availability half-width (reported as the
// cfs_hw metric). At matched accuracy the solver wins by orders of
// magnitude — halving a simulation half-width costs 4x the replications, so
// closing a 4e-2 interval to even 1e-3 needs ~1600x the simulated work —
// which is why the sweep engine always prefers a certified analytic answer
// regardless of the raw wall-clock ratio on small models.
func BenchmarkSolverVsSimulation(b *testing.B) {
	opts := san.Options{Mission: 8760, Replications: 60, Confidence: 0.95, Seed: 1}
	pair := experiments.Figure4CrossCheckPoints(opts.Seed)
	for _, tc := range []struct {
		name   string
		point  sweep.Point
		method string
	}{
		{"uniformization", pair[0], sweep.MethodUniformization},
		{"simulation", pair[1], sweep.MethodSimulation},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var hw float64
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run([]sweep.Point{tc.point}, opts)
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Points[0].Solver.Method; got != tc.method {
					b.Fatalf("solved by %q, want %q (reasons %v)", got, tc.method, res.Points[0].Solver.Reasons)
				}
				hw = res.Points[0].Measures.Intervals[abe.RewardCFSAvailability].HalfWidth
			}
			b.ReportMetric(hw, "cfs_hw")
		})
	}
}

// BenchmarkFitSolverVsSimulation is the approximate-tier counterpart of
// BenchmarkSolverVsSimulation: the Weibull-disk mini configuration has no
// exact phase-type form, so "uniformization-approx" runs certification,
// the certified phase-type fit (tolerance experiments.Figure4FitTolerance),
// and the exact transient solve of the surrogate end to end through
// sweep.Run, while "simulation" forces the original Weibull model through
// a full 60-replication study. The accuracy comparison carries one extra
// term: the analytic answer is exact for the surrogate and within the
// certified Kolmogorov bound of the original, while the simulation's
// half-width (cfs_hw) shrinks only as 1/sqrt(replications).
func BenchmarkFitSolverVsSimulation(b *testing.B) {
	opts := san.Options{Mission: 8760, Replications: 60, Confidence: 0.95, Seed: 1,
		PHFitTolerance: experiments.Figure4FitTolerance}
	pair := experiments.Figure4WeibullCrossCheckPoints(opts.Seed)
	for _, tc := range []struct {
		name   string
		point  sweep.Point
		method string
	}{
		{"uniformization-approx", pair[0], sweep.MethodUniformizationApprox},
		{"simulation", pair[1], sweep.MethodSimulation},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var hw float64
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run([]sweep.Point{tc.point}, opts)
				if err != nil {
					b.Fatal(err)
				}
				if got := res.Points[0].Solver.Method; got != tc.method {
					b.Fatalf("solved by %q, want %q (reasons %v)", got, tc.method, res.Points[0].Solver.Reasons)
				}
				hw = res.Points[0].Measures.Intervals[abe.RewardCFSAvailability].HalfWidth
			}
			b.ReportMetric(hw, "cfs_hw")
		})
	}
}

// BenchmarkAblationSpareOSS isolates the standby-spare OSS design choice at
// petascale (Figure 4's fourth series) without the rest of the sweep.
func BenchmarkAblationSpareOSS(b *testing.B) {
	opts := san.Options{Mission: 4380, Replications: 8, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base, err := abe.Evaluate(abe.Petascale(), opts)
		if err != nil {
			b.Fatal(err)
		}
		spare, err := abe.Evaluate(abe.Petascale().WithSpareOSS(true), opts)
		if err != nil {
			b.Fatal(err)
		}
		if spare.CFSAvailability < base.CFSAvailability-0.05 {
			b.Fatalf("spare OSS regressed availability: %v vs %v", spare.CFSAvailability, base.CFSAvailability)
		}
	}
}

// BenchmarkAblationReplicationCount measures the cost of the ABE composed
// model per replication count, the knob that trades confidence-interval
// width against runtime.
func BenchmarkAblationReplicationCount(b *testing.B) {
	for _, reps := range []int{4, 16, 64} {
		reps := reps
		b.Run(benchName("replications", reps), func(b *testing.B) {
			cfg := abe.ABE()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := abe.Evaluate(cfg, san.Options{Mission: 4380, Replications: reps, Seed: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelConstruction measures building (not simulating) the composed
// model at ABE and petascale sizes — the fixed cost every study pays.
func BenchmarkModelConstruction(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  abe.Config
	}{
		{"ABE", abe.ABE()},
		{"Petascale", abe.Petascale()},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model := san.NewModel(tc.cfg.Name)
				if _, err := abe.Build(model, tc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStorageSimulationPerDisk measures the raw simulation throughput
// of the storage submodel as the disk count grows (Figure 2/3 inner loop).
func BenchmarkStorageSimulationPerDisk(b *testing.B) {
	for _, disks := range []int{480, 4800} {
		disks := disks
		b.Run(benchName("disks", disks), func(b *testing.B) {
			cfg, err := raid.ABEStorage().ScaledToDisks(disks)
			if err != nil {
				b.Fatal(err)
			}
			model := san.NewModel("bench-storage")
			sp, err := raid.BuildStorage(model, "storage", cfg)
			if err != nil {
				b.Fatal(err)
			}
			rewards := []san.RewardVariable{sp.AvailabilityReward("availability")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := san.RunReplications(model, rewards, san.Options{Mission: 8760, Replications: 4, Seed: uint64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// miniWeibullCertifySolve runs the MiniWeibull certify+solve path once, the
// way the sweep's solver pre-pass executes it for one point: fresh model
// build, the certified approximate fitting tier at the figure4 tolerance,
// and the exact transient solve of the surrogate at the one-year mission.
func miniWeibullCertifySolve(b *testing.B) {
	b.Helper()
	cfg := abe.MiniWeibull()
	model := san.NewModel(cfg.Name)
	mp, err := abe.Build(model, cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, cert, rep, err := statespace.CertifyFitted(model, mp.Rewards(), experiments.Figure4FitTolerance, statespace.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if !cert.Certified() || len(rep.Fits) == 0 {
		b.Fatalf("refused: %s", cert.Summary())
	}
	if _, err := gen.SolveTransient(8760); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExploreSolve measures the MiniWeibull certify+solve path — the
// sweep's analytic tier on the Weibull-disk cross-check configuration (a
// 27k-state, 304k-edge CTMC after phase-type fitting) — at two
// granularities. "sweep-cached" runs three fingerprint-identical points
// through sweep.Run, where the content-addressed solve cache deduplicates
// them to one computation; "point-optimized" is one certify+solve without
// the cache.
func BenchmarkExploreSolve(b *testing.B) {
	const dupPoints = 3
	b.Run("sweep-cached", func(b *testing.B) {
		opts := san.Options{Mission: 8760, Replications: 8, Seed: 1,
			PHFitTolerance: experiments.Figure4FitTolerance}
		points := make([]sweep.Point, dupPoints)
		for p := range points {
			points[p] = sweep.Point{Label: benchName("dup", p), Config: abe.MiniWeibull()}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sweep.Run(points, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, pt := range res.Points {
				if pt.Solver.Method != sweep.MethodUniformizationApprox {
					b.Fatalf("point %q solved by %q, want uniformization-approx", pt.Label, pt.Solver.Method)
				}
			}
		}
	})
	b.Run("point-optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			miniWeibullCertifySolve(b)
		}
	})
}

// BenchmarkSweepSolveCache measures the sweep's content-addressed solve cache
// on analytic points: "unique" sweeps four fingerprint-distinct mini
// configurations (every point certifies and solves — all misses), "duplicate"
// sweeps four copies of the same configuration (one miss, three hits sharing
// its memoized outcome). Both sweeps produce full reports; the gap is the
// certify+solve work the cache deduplicates.
func BenchmarkSweepSolveCache(b *testing.B) {
	opts := san.Options{Mission: 8760, Replications: 8, Seed: 1}
	uniquePoints := func() []sweep.Point {
		points := make([]sweep.Point, 4)
		for i := range points {
			cfg := abe.MiniExponential()
			// Distinct disk MTBFs give every point its own fingerprint
			// without changing the model's shape or state space.
			cfg.Storage.Disk.MTBFHours = 1000 + 100*float64(i)
			points[i] = sweep.Point{Label: benchName("unique", i), Config: cfg}
		}
		return points
	}
	duplicatePoints := func() []sweep.Point {
		points := make([]sweep.Point, 4)
		for i := range points {
			points[i] = sweep.Point{Label: benchName("dup", i), Config: abe.MiniExponential()}
		}
		return points
	}
	for _, tc := range []struct {
		name   string
		points func() []sweep.Point
	}{
		{"unique", uniquePoints},
		{"duplicate", duplicatePoints},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			points := tc.points()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run(points, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, pt := range res.Points {
					if pt.Solver.Method != sweep.MethodUniformization {
						b.Fatalf("point %q solved by %q, want uniformization", pt.Label, pt.Solver.Method)
					}
				}
			}
		})
	}
}

// benchName formats sub-benchmark labels without fmt in the hot path.
func benchName(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return prefix + "-" + digits
}
