package sweep

import (
	"sync"

	"repro/internal/abe"
	"repro/internal/san"
	"repro/internal/statespace"
)

// This file is the content-addressed solve cache behind the sweep's analytic
// tier. A sweep point's certification cascade and transient solve depend
// only on the compiled model's content, the mission time, the solver cascade
// in effect, and the fit tolerance — never on the point's label, seed, or
// position — so points sharing a model fingerprint (design alternatives
// swept under common random numbers, repeated calibrated sweeps, the
// analytic half of cross-check twins) can share one computation. The cache
// memoizes the full outcome: the analytic rewards when the solve succeeded,
// or the certificate/refusal evidence when the point must simulate.
//
// Determinism contract (see docs/determinism.md): a cache hit returns the
// exact object the miss computed, so a hit is byte-identical to a recompute
// in every report; and the per-point "hit"/"miss" labels are assigned by
// point index order against the cache's pre-sweep contents — never by
// execution timing — so reports are byte-identical at any Parallelism.

// Cache labels recorded in Solver.Cache.
const (
	CacheMiss = "miss"
	CacheHit  = "hit"
)

// solveKey identifies one memoized solver outcome: the compiled model's
// content fingerprint, the mission time, the solver cascade identifier, and
// the phase-type fit tolerance. Execution details (parallelism, seeds,
// labels) never enter the key.
type solveKey struct {
	fingerprint string
	mission     float64
	tier        string
	fitTol      float64
}

// solverTier names the retry cascade the sweep options enable, so outcomes
// computed under different cascades can never alias.
func solverTier(opts san.Options) string {
	if opts.PHFitTolerance > 0 {
		return "uniformization+expand+fit"
	}
	return "uniformization+expand"
}

// solveEntry is one memoized outcome. The once gate gives once-per-key
// execution: duplicate in-flight points block on the first computation
// instead of racing it.
type solveEntry struct {
	once    sync.Once
	rewards map[string]float64 // non-nil iff the point is answered analytically
	solver  Solver             // method, reasons, certificate evidence
	err     error              // hard failure (model rebuild etc.); aborts the sweep
}

// SolveCache is a deterministic, concurrency-safe memo of solver outcomes.
// Run uses a fresh cache per sweep (deduplicating within the sweep);
// RunWithCache lets callers keep one across sweeps — e.g. a long-lived
// service answering repeated sweeps over recurring configurations.
type SolveCache struct {
	mu      sync.Mutex
	entries map[solveKey]*solveEntry
}

// NewSolveCache returns an empty cache.
func NewSolveCache() *SolveCache {
	return &SolveCache{entries: make(map[solveKey]*solveEntry)}
}

// entry returns the entry for k, creating it if absent.
func (c *SolveCache) entry(k solveKey) *solveEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		e = &solveEntry{}
		c.entries[k] = e
	}
	return e
}

// snapshot returns the set of keys present before a sweep starts; hit/miss
// labeling is computed against it, in point order, so labels never depend on
// which worker reached a key first. Set construction is order-insensitive.
func (c *SolveCache) snapshot() map[solveKey]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make(map[solveKey]bool, len(c.entries))
	for k := range c.entries { //lint:sorted
		keys[k] = true
	}
	return keys
}

// solvePoint runs the certification cascade — plain certify, phase-type
// expansion retry, optional approximate-fit retry — and the transient solve
// for one configuration. It is the body of the original per-point solver
// pre-pass, hoisted out of Run so the cache can execute it once per key. A
// nil rewards map with a nil error means the point must simulate, with the
// evidence in the returned Solver.
//
// The expansion retry runs only when cm.HasExpandableDelay: without an
// expandable delay ExpandPhases rewrites nothing and the retry's result would
// be discarded, so the rebuild and the pass are skipped.
func solvePoint(cfg abe.Config, cm *san.CompiledModel, mission, fitTol float64) (map[string]float64, Solver, error) {
	var out Solver
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if !cert.Certified() && hasPrefix(cert.Refusals, san.RefusalNonMemoryless) && cm.HasExpandableDelay() {
		// Phase-type expansion retry: rebuild the point's model fresh
		// (ExpandPhases mutates its input and the simulation fallback must
		// keep the original compiled model bit-identical), expand, and
		// certify the expanded image. When the pass rewrote nothing the
		// original certificate stands; when it did, the expanded certificate
		// — evidence, refusals, and all — replaces it.
		exGen, exCert, rep, err := expandedCertify(cfg)
		if err != nil {
			return nil, out, err
		}
		if len(rep.Expanded) > 0 {
			gen, cert = exGen, exCert
		}
	}
	if !cert.Certified() && hasPrefix(cert.Refusals, san.RefusalNonMemoryless) && fitTol > 0 {
		// Approximate-fitting retry, opted into via PHFitTolerance: some
		// delay has no exact phase form, so rebuild once more and run the
		// certified fitting tier over the non-expandable remainder. Only an
		// image that actually adopted surrogates replaces the standing
		// certificate; the answer is then labeled uniformization-approx,
		// never plain uniformization.
		fitGen, fitCert, rep, err := fittedCertify(cfg, fitTol)
		if err != nil {
			return nil, out, err
		}
		if len(rep.Fits) > 0 {
			gen, cert = fitGen, fitCert
		}
	}
	c := cert
	out.Certificate = &c
	if !cert.Certified() {
		out.Method = MethodSimulation
		out.Reasons = cert.Refusals
		return nil, out, nil
	}
	rewards, err := gen.SolveTransient(mission)
	if err != nil {
		out.Method = MethodSimulation
		out.Reasons = []string{err.Error()}
		return nil, out, nil
	}
	if len(cert.Approximations) > 0 {
		out.Method = MethodUniformizationApprox
	} else {
		out.Method = MethodUniformization
	}
	return rewards, out, nil
}
