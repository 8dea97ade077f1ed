package sweep

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/abe"
	"repro/internal/san"
	"repro/internal/statespace"
)

// This file is the sweep's analytic tier: the certification cascade and the
// per-sweep solve cache behind it. A sweep point's certification cascade and
// transient solve depend only on the compiled model's content — never on the
// point's label, seed, or position — and the mission time, the cascade in
// effect and the fit tolerance are fixed for a whole sweep, so points of one
// sweep sharing a model fingerprint (design alternatives swept under common
// random numbers, the analytic half of cross-check twins) share one
// computation. The cache memoizes the full outcome: the analytic rewards
// when the solve succeeded, or the certificate/refusal evidence when the
// point must simulate.
//
// Determinism contract (see docs/determinism.md): a cache hit returns the
// exact object the miss computed, so a hit is byte-identical to a recompute
// in every report; and the per-point "hit"/"miss" labels are assigned in
// point index order — never by execution timing — so reports are
// byte-identical at any Parallelism.

// Cache labels recorded in Solver.Cache.
const (
	CacheMiss = "miss"
	CacheHit  = "hit"
)

// solveEntry is one memoized outcome. The once gate gives once-per-key
// execution: duplicate in-flight points block on the first computation
// instead of racing it.
type solveEntry struct {
	once    sync.Once
	rewards map[string]float64 // non-nil iff the point is answered analytically
	solver  Solver             // method, reasons, certificate evidence
	err     error              // hard failure (model rebuild etc.); aborts the sweep
}

// solveCache is one sweep's memo of solver outcomes, keyed by the compiled
// model's content fingerprint alone.
type solveCache struct {
	mu      sync.Mutex
	entries map[string]*solveEntry
}

// entry returns the entry for a fingerprint, creating it if absent.
func (c *solveCache) entry(fingerprint string) *solveEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fingerprint]
	if !ok {
		e = &solveEntry{}
		c.entries[fingerprint] = e
	}
	return e
}

// buildModel composes the model for cfg and returns the uncompiled builder
// with its reward variables.
func buildModel(cfg abe.Config) (*san.Model, []san.RewardVariable, error) {
	m := san.NewModel(cfg.Name)
	mp, err := abe.Build(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, mp.Rewards(), nil
}

// refusedNonMemoryless reports whether the certificate was refused with a
// non-memoryless delay among its reasons — the only refusal the expansion
// and fitting retries can repair.
func refusedNonMemoryless(cert san.Certificate) bool {
	return !cert.Certified() && slices.ContainsFunc(cert.Refusals, func(r string) bool {
		return strings.HasPrefix(r, san.RefusalNonMemoryless)
	})
}

// CertifyPoint runs the analytic tier's certification cascade for one
// configuration whose compiled model is cm: the plain certificate, then the
// exact phase-type expansion retry, then — when fitTol > 0 — the certified
// approximate-fitting retry. Both the sweep and the -analyze report reach
// the certificate through it.
//
// Each retry runs only while the standing certificate is refused as
// non-memoryless, on a fresh build of cfg: the passes mutate their input,
// and the simulation fallback must keep cm bit-identical. The expansion
// retry also needs cm.HasExpandableDelay — without an expandable delay the
// pass rewrites nothing and its result would be discarded. A retry's
// certificate (evidence, refusals and all) replaces the standing one only
// when its pass actually rewrote something: an expansion, or an adopted fit
// surrogate, whose answer is then labeled uniformization-approx, never plain
// uniformization. The error covers structural failures of the rebuild or a
// pass; a refused certificate is a result.
func CertifyPoint(cfg abe.Config, cm *san.CompiledModel, fitTol float64) (*statespace.Generator, san.Certificate, error) {
	gen, cert := statespace.Certify(cm, statespace.Options{})
	if refusedNonMemoryless(cert) && cm.HasExpandableDelay() {
		m, rewards, err := buildModel(cfg)
		if err != nil {
			return nil, san.Certificate{}, err
		}
		exGen, exCert, rep, err := statespace.CertifyExpanded(m, rewards, statespace.Options{})
		if err != nil {
			return nil, san.Certificate{}, err
		}
		if len(rep.Expanded) > 0 {
			gen, cert = exGen, exCert
		}
	}
	if refusedNonMemoryless(cert) && fitTol > 0 {
		m, rewards, err := buildModel(cfg)
		if err != nil {
			return nil, san.Certificate{}, err
		}
		fitGen, fitCert, rep, err := statespace.CertifyFitted(m, rewards, fitTol, statespace.Options{})
		if err != nil {
			return nil, san.Certificate{}, err
		}
		if len(rep.Fits) > 0 {
			gen, cert = fitGen, fitCert
		}
	}
	return gen, cert, nil
}

// solvePoint runs the certification cascade and the transient solve for one
// configuration, once per cache entry. A nil rewards map with a nil error
// means the point must simulate, with the evidence in the returned Solver.
func solvePoint(cfg abe.Config, cm *san.CompiledModel, mission, fitTol float64) (map[string]float64, Solver, error) {
	var out Solver
	gen, cert, err := CertifyPoint(cfg, cm, fitTol)
	if err != nil {
		return nil, out, err
	}
	out.Certificate = &cert
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
