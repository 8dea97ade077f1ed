package main

import (
	"fmt"

	"repro/internal/abe"
	"repro/internal/experiments"
	"repro/internal/raid"
	"repro/internal/san"
	"repro/internal/sweep"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup derives the inputs from the seed and builds every model of the
	// workload once, so that a model which fails to build fails before
	// timing starts.
	setup(seed uint64) error
	// run is one iteration through the workload's public entry point, with
	// par workers for sweeps and replications.
	run(par int) (outcome, error)
	// replay does run(1)'s work as a sequence of traced public calls.
	replay(t *tracer) ([]point, error)
	// check applies the workload's own output checks to one iteration.
	check(ps []point) error
}

// spec names a workload and the measure its accuracy is read from.
type spec struct {
	name     string
	headline string
	// seedFree marks results that do not depend on the seed, so the
	// committed reference holds at every seed, not only at defaultSeed.
	seedFree bool
	make     func() workload
}

var workloads = []spec{
	{name: "figure4-sweep", headline: abe.RewardCFSAvailability, make: func() workload { return &figure4Sweep{} }},
	{name: "analytic-ladder", headline: abe.RewardCFSAvailability, seedFree: true, make: func() workload { return &analyticLadder{} }},
	{name: "fig2-storage", headline: abe.RewardStorageAvailability, make: func() workload { return &fig2Storage{} }},
}

// studyOptions are the study options of experiments.Options{Quick: true}:
// 12 replications of one 8760 h mission at 95% confidence.
func studyOptions(seed uint64, par int) san.Options {
	return san.Options{Mission: 8760, Replications: 12, Confidence: 0.95, Seed: seed, Parallelism: par}
}

// ---------------------------------------------------------------------------
// figure4-sweep: Figure 4's scaling sweep over the Table 5 configuration.
// ---------------------------------------------------------------------------

// figure4Sweep is the Figure 4 scaling study of experiments.PaperFull, run
// over the hard-coded Table 5 configuration instead of one calibrated from
// the seed's synthetic logs. PaperFull's own log steps fail at some seeds,
// an open defect of the program: calibration at about 2% (a log with one
// outage gives an empty fabric-repair Uniform, one with none is refused)
// and the round trip at about 7% more (the regenerated log has no outage
// record). The benchmark measures only work that succeeds at every seed,
// and those steps are under 1% of PaperFull's time.
type figure4Sweep struct {
	seed   uint64
	points []sweep.Point
}

func (w *figure4Sweep) setup(seed uint64) error {
	w.seed = seed
	w.points = experiments.Figure4Points(seed, experiments.Figure4ScaleFactors(true))
	for _, pt := range w.points {
		if err := buildOnce(pt.Config); err != nil {
			return err
		}
	}
	return nil
}

func (w *figure4Sweep) run(par int) (outcome, error) {
	res, err := sweep.Run(w.points, studyOptions(w.seed, par))
	if err != nil {
		return outcome{}, err
	}
	ps := make([]point, len(res.Points))
	for i, p := range res.Points {
		ps[i] = sweepPoint(p.Label, p.Measures, p.Solver)
	}
	return outcome{points: ps, report: res.JSON}, nil
}

func (w *figure4Sweep) replay(t *tracer) ([]point, error) {
	return replaySweep(t, w.points, studyOptions(w.seed, 1))
}

// check: every Figure 4 point has a Weibull disk lifetime, so the cascade
// must refuse it and say why.
func (w *figure4Sweep) check(ps []point) error {
	for _, p := range ps {
		if p.Method != sweep.MethodSimulation || len(p.Reasons) == 0 {
			return fmt.Errorf("%s: method %s with %d reasons, want simulation with reasons", p.Label, p.Method, len(p.Reasons))
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// analytic-ladder: every analytic rung plus one cache hit, no simulation.
// ---------------------------------------------------------------------------

type analyticLadder struct {
	seed   uint64
	points []sweep.Point
}

func (w *analyticLadder) setup(seed uint64) error {
	w.seed = seed
	weibull := abe.MiniWeibull()
	w.points = []sweep.Point{
		{Config: abe.MiniExponential()},
		{Config: abe.MiniErlang()},
		{Config: weibull},
		{Label: weibull.Name + " [duplicate]", Config: weibull},
	}
	for _, pt := range w.points {
		if err := buildOnce(pt.Config); err != nil {
			return err
		}
	}
	return nil
}

func (w *analyticLadder) options(par int) san.Options {
	o := studyOptions(w.seed, par)
	o.PHFitTolerance = experiments.Figure4FitTolerance
	return o
}

func (w *analyticLadder) run(par int) (outcome, error) {
	res, err := sweep.Run(w.points, w.options(par))
	if err != nil {
		return outcome{}, err
	}
	ps := make([]point, len(res.Points))
	for i, p := range res.Points {
		ps[i] = sweepPoint(p.Label, p.Measures, p.Solver)
	}
	return outcome{points: ps, report: res.JSON}, nil
}

func (w *analyticLadder) replay(t *tracer) ([]point, error) {
	return replaySweep(t, w.points, w.options(1))
}

func (w *analyticLadder) check(ps []point) error {
	methods := []string{sweep.MethodUniformization, sweep.MethodUniformization, sweep.MethodUniformizationApprox, sweep.MethodUniformizationApprox}
	caches := []string{sweep.CacheMiss, sweep.CacheMiss, sweep.CacheMiss, sweep.CacheHit}
	if len(ps) != len(methods) {
		return fmt.Errorf("%d points, want %d", len(ps), len(methods))
	}
	for i, p := range ps {
		if p.Method != methods[i] || p.Cache != caches[i] {
			return fmt.Errorf("%s: %s/%s, want %s/%s", p.Label, p.Method, p.Cache, methods[i], caches[i])
		}
		for _, v := range p.Values {
			if v.HalfWidth != 0 {
				return fmt.Errorf("%s: analytic %s has half-width %v", p.Label, v.Name, v.HalfWidth)
			}
		}
		if p.Method == sweep.MethodUniformizationApprox && len(p.FitBounds) == 0 {
			return fmt.Errorf("%s: approximate answer without fit bounds", p.Label)
		}
		for _, b := range p.FitBounds {
			if !(b <= experiments.Figure4FitTolerance) {
				return fmt.Errorf("%s: fit bound %v exceeds tolerance %v", p.Label, b, experiments.Figure4FitTolerance)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// fig2-storage: Figure 2's flat storage models, simulated.
// ---------------------------------------------------------------------------

type fig2Storage struct {
	seed    uint64
	configs []storagePoint
}

type storagePoint struct {
	label string
	cfg   raid.StorageConfig
}

// figure2Configs derives Figure 2's quick-mode storage configurations the
// way experiments.Figure2StorageAvailability does, in its point order.
func figure2Configs() ([]storagePoint, error) {
	var out []storagePoint
	base := raid.ABEStorage()
	for _, series := range experiments.Figure2Series() {
		for _, tb := range experiments.Figure2ScalePointsTB(true) {
			cfg := base
			cfg.Geometry = series.Geometry
			cfg.Disk.ShapeBeta = series.Shape
			cfg.Disk.MTBFHours = 8760 / (series.AFRPercent / 100)
			cfg.Disk.ReplaceHours = series.ReplaceHours
			scaled, err := cfg.ScaledToUsableTB(tb, 0, 0)
			if err != nil {
				return nil, err
			}
			out = append(out, storagePoint{label: storageLabel(series.Label(), tb), cfg: scaled})
		}
	}
	return out, nil
}

func storageLabel(series string, tb float64) string { return fmt.Sprintf("%s @ %g TB", series, tb) }

// buildStorage builds and compiles one Figure 2 model.
func buildStorage(t *tracer, cfg raid.StorageConfig) (*san.CompiledModel, error) {
	model := san.NewModel("figure2")
	sp, err := call(t, "raid.BuildStorage", func() (*raid.StoragePlaces, error) { return raid.BuildStorage(model, "storage", cfg) })
	if err != nil {
		return nil, err
	}
	t.add("raid.places", float64(model.NumPlaces()))
	rewards := []san.RewardVariable{sp.AvailabilityReward(abe.RewardStorageAvailability)}
	return call(t, "san.Compile", func() (*san.CompiledModel, error) { return san.Compile(model, rewards) })
}

func (w *fig2Storage) setup(seed uint64) error {
	w.seed = seed
	var err error
	if w.configs, err = figure2Configs(); err != nil {
		return err
	}
	for _, sp := range w.configs {
		if _, err := buildStorage(nil, sp.cfg); err != nil {
			return err
		}
	}
	return nil
}

func (w *fig2Storage) run(par int) (outcome, error) {
	fig, err := experiments.Figure2StorageAvailability(experiments.Options{Quick: true, Seed: w.seed, Parallelism: par})
	if err != nil {
		return outcome{}, err
	}
	var ps []point
	for _, s := range fig.Series {
		for _, p := range s.Points {
			ps = append(ps, point{
				Label:  storageLabel(s.Name, p.X),
				Values: []value{{Name: abe.RewardStorageAvailability, Mean: p.Y, HalfWidth: p.HalfWidth}},
			})
		}
	}
	return outcome{points: ps, report: fig.JSON}, nil
}

func (w *fig2Storage) replay(t *tracer) ([]point, error) {
	opts := studyOptions(w.seed, 1).WithDefaults()
	ps := make([]point, len(w.configs))
	for i, sp := range w.configs {
		err := t.forPoint(i, func() error {
			cm, err := buildStorage(t, sp.cfg)
			if err != nil {
				return err
			}
			study := san.NewStudyResult(cm.Rewards(), opts)
			if err := replicate(t, cm, opts, study); err != nil {
				return err
			}
			ci, err := study.Interval(abe.RewardStorageAvailability)
			if err != nil {
				return err
			}
			ps[i] = point{Label: sp.label, Values: []value{{Name: abe.RewardStorageAvailability, Mean: ci.Mean, HalfWidth: ci.HalfWidth}}}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.label, err)
		}
	}
	return ps, nil
}

func (w *fig2Storage) check([]point) error { return nil }

// buildOnce builds and compiles cfg's model, untraced.
func buildOnce(cfg abe.Config) error {
	_, err := buildABE(nil, cfg)
	return err
}
