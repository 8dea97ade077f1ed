package main

import (
	"fmt"
	"strings"

	"repro/internal/abe"
	"repro/internal/san"
	"repro/internal/statespace"
	"repro/internal/sweep"
)

// This file replays sweep.Run at Parallelism 1 as the sequence of public
// calls it makes, one span per call: the point's build and compile, its
// cache key, the certification cascade (plain, exact phase expansion,
// approximate fit) and the transient solve in a pre-pass over all points,
// then the replications of every point that must simulate. The replay
// check compares its points with sweep.Run's bit for bit, so a change to
// sweep.Run that the replay does not follow invalidates the layer numbers
// instead of mismeasuring them.

// solution is a memoized solver outcome, shared by points with one key.
type solution struct {
	rewards   map[string]float64 // nil when the point must simulate
	method    string
	reasons   []string
	fitBounds []float64
}

// buildABE composes and compiles cfg's model.
func buildABE(t *tracer, cfg abe.Config) (*san.CompiledModel, error) {
	model, mp, err := buildModel(t, cfg)
	if err != nil {
		return nil, err
	}
	return call(t, "san.Compile", func() (*san.CompiledModel, error) { return san.Compile(model, mp.Rewards()) })
}

// buildModel composes cfg's model, uncompiled: the cascade's retries start
// from such a fresh build, because their passes rewrite the model in place.
func buildModel(t *tracer, cfg abe.Config) (*san.Model, *abe.ModelPlaces, error) {
	model := san.NewModel(cfg.Name)
	mp, err := call(t, "abe.Build", func() (*abe.ModelPlaces, error) { return abe.Build(model, cfg) })
	if err != nil {
		return nil, nil, err
	}
	t.add("abe.places", float64(model.NumPlaces()))
	t.add("abe.activities", float64(model.NumActivities()))
	return model, mp, nil
}

// certify runs statespace.Certify with the options sweep.Run passes.
func certify(t *tracer, cm *san.CompiledModel) (*statespace.Generator, san.Certificate) {
	id := t.begin("statespace.Certify")
	gen, cert := statespace.Certify(cm, statespace.Options{})
	t.end(id)
	return gen, cert
}

func nonMemoryless(cert san.Certificate) bool {
	if cert.Certified() {
		return false
	}
	for _, r := range cert.Refusals {
		if strings.HasPrefix(r, san.RefusalNonMemoryless) {
			return true
		}
	}
	return false
}

// solve is the certification cascade and transient solve of one point.
func solve(t *tracer, cfg abe.Config, cm *san.CompiledModel, mission, fitTol float64) (*solution, error) {
	gen, cert := certify(t, cm)
	if nonMemoryless(cert) {
		model, mp, err := buildModel(t, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := call(t, "san.ExpandPhases", func() (*san.ExpansionReport, error) { return san.ExpandPhases(model) })
		if err != nil {
			return nil, err
		}
		exCM, err := call(t, "san.Compile", func() (*san.CompiledModel, error) { return san.Compile(model, mp.Rewards()) })
		if err != nil {
			return nil, err
		}
		exGen, exCert := certify(t, exCM)
		if !exCert.Certified() {
			exCert.Refusals = append(exCert.Refusals, rep.Refusals...)
		}
		if len(rep.Expanded) > 0 {
			gen, cert = exGen, exCert
		}
	}
	if nonMemoryless(cert) && fitTol > 0 {
		model, mp, err := buildModel(t, cfg)
		if err != nil {
			return nil, err
		}
		exp, err := call(t, "san.ExpandPhases", func() (*san.ExpansionReport, error) { return san.ExpandPhases(model) })
		if err != nil {
			return nil, err
		}
		rep, err := call(t, "san.FitPhases", func() (*san.FitReport, error) { return san.FitPhases(model, fitTol) })
		if err != nil {
			return nil, err
		}
		t.add("san.fits", float64(len(rep.Fits)))
		fitCM, err := call(t, "san.Compile", func() (*san.CompiledModel, error) { return san.Compile(model, mp.Rewards()) })
		if err != nil {
			return nil, err
		}
		fitGen, fitCert := certify(t, fitCM)
		fitCert.Approximations = append([]san.FitEvidence(nil), rep.Fits...)
		if !fitCert.Certified() {
			fitCert.Refusals = append(fitCert.Refusals, exp.Refusals...)
			fitCert.Refusals = append(fitCert.Refusals, rep.Refusals...)
		}
		if len(rep.Fits) > 0 {
			gen, cert = fitGen, fitCert
		}
	}
	sol := &solution{method: sweep.MethodSimulation}
	for _, f := range cert.Approximations {
		sol.fitBounds = append(sol.fitBounds, f.Bound)
	}
	if !cert.Certified() {
		sol.reasons = cert.Refusals
		return sol, nil
	}
	t.add("statespace.states", float64(len(gen.States)))
	t.add("statespace.edges", float64(gen.NumTransitions()))
	t.raise("statespace.lambda_t", maxExitRate(gen)*mission)
	rewards, err := call(t, "statespace.SolveTransient", func() (map[string]float64, error) { return gen.SolveTransient(mission) })
	if err != nil {
		sol.reasons = []string{err.Error()}
		return sol, nil
	}
	sol.rewards = rewards
	sol.method = sweep.MethodUniformization
	if len(cert.Approximations) > 0 {
		sol.method = sweep.MethodUniformizationApprox
	}
	return sol, nil
}

// maxExitRate is the chain's uniformization rate: the largest total rate
// out of a state, self-loops excluded.
func maxExitRate(g *statespace.Generator) float64 {
	lambda := 0.0
	for s, ts := range g.Transitions {
		out := 0.0
		for _, tr := range ts {
			if tr.To != s {
				out += tr.Rate
			}
		}
		lambda = max(lambda, out)
	}
	return lambda
}

// replicate runs opts.Replications replications of cm in replication order
// on one simulator, as each worker of sweep.Run and san.RunReplications
// does, and folds them into study.
func replicate(t *tracer, cm *san.CompiledModel, opts san.Options, study *san.StudyResult) error {
	return t.within("replications", func() error {
		var sim *san.Simulator
		for rep, seed := range san.ReplicationSeeds(opts) {
			stream := san.ReplicationStream(seed, rep)
			var err error
			if sim == nil {
				sim, err = call(t, "san.NewSimulator", func() (*san.Simulator, error) { return cm.NewSimulator(stream) })
			} else {
				_, err = call(t, "san.Reset", func() (struct{}, error) { return struct{}{}, sim.Reset(stream) })
			}
			if err != nil {
				return err
			}
			res, err := call(t, "san.Run", func() (san.Result, error) { return sim.Run(opts.Mission) })
			if err != nil {
				return err
			}
			t.add("san.sim_events", float64(res.Events))
			study.Add(res)
		}
		return nil
	})
}

// replaySweep evaluates points as sweep.Run(points, opts) does. No point
// of the benchmark forces simulation, so the replay has no such branch.
func replaySweep(t *tracer, points []sweep.Point, opts san.Options) ([]point, error) {
	opts = opts.WithDefaults()
	derived := sweep.PointSeeds(opts.Seed, len(points))
	type plan struct {
		opts san.Options
		cm   *san.CompiledModel
		sol  *solution
	}
	plans := make([]plan, len(points))
	out := make([]point, len(points))
	// Within one sweep mission, tier and tolerance are fixed, so the
	// fingerprint alone keys the solve cache.
	cache := make(map[string]*solution)
	err := t.within("sweep", func() error {
		for i, pt := range points {
			pl := &plans[i]
			pl.opts = opts
			pl.opts.Seed = derived[i]
			if pt.Seed != 0 {
				pl.opts.Seed = pt.Seed
			}
			pl.opts = pl.opts.WithDefaults()
			out[i].Label = pt.Config.Name
			if pt.Label != "" {
				out[i].Label = pt.Label
			}
			err := t.forPoint(i, func() error {
				var err error
				if pl.cm, err = buildABE(t, pt.Config); err != nil {
					return err
				}
				return t.within("prepass", func() error {
					fp, err := call(t, "san.Fingerprint", func() (string, error) { return pl.cm.Fingerprint(), nil })
					if err != nil {
						return err
					}
					t.add("sweep.keyed", 1)
					if sol, ok := cache[fp]; ok {
						t.add("sweep.hits", 1)
						out[i].Cache = sweep.CacheHit
						pl.sol = sol
						return nil
					}
					out[i].Cache = sweep.CacheMiss
					t.add("sweep.certify_attempts", 1)
					sol, err := solve(t, pt.Config, pl.cm, pl.opts.Mission, opts.PHFitTolerance)
					if err != nil {
						return err
					}
					if sol.rewards != nil {
						t.add("sweep.analytic", 1)
					}
					cache[fp], pl.sol = sol, sol
					return nil
				})
			})
			if err != nil {
				return fmt.Errorf("point %d (%s): %w", i, out[i].Label, err)
			}
		}
		for i, pt := range points {
			pl := plans[i]
			study := san.NewStudyResult(pl.cm.Rewards(), pl.opts)
			if pl.sol.rewards != nil {
				res := san.Result{Rewards: pl.sol.rewards, FinalTime: pl.opts.Mission}
				study.Add(res)
				study.Add(res)
			} else if err := t.forPoint(i, func() error { return replicate(t, pl.cm, pl.opts, study) }); err != nil {
				return fmt.Errorf("point %d (%s): %w", i, out[i].Label, err)
			}
			m, err := abe.MeasuresFromStudy(pt.Config, study)
			if err != nil {
				return fmt.Errorf("point %d (%s): %w", i, out[i].Label, err)
			}
			p := sweepPoint(out[i].Label, m, sweep.Solver{Method: pl.sol.method, Reasons: pl.sol.reasons, Cache: out[i].Cache})
			p.FitBounds = pl.sol.fitBounds
			out[i] = p
		}
		return nil
	})
	return out, err
}
