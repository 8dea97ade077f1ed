package statespace

import "repro/internal/san"

// CertifyReference runs the Certify pipeline on the sequential reference
// explorer of reference_test.go.
func CertifyReference(cm *san.CompiledModel, opts Options) (*Generator, san.Certificate) {
	return certify(cm, opts, exploreBaseline)
}

// SolveTransientReference is SolveTransient on the scatter-SpMV reference
// solver.
func (g *Generator) SolveTransientReference(T float64) (map[string]float64, error) {
	return g.solveTransientBaseline(T)
}

// SolveSteadyStateReference is SolveSteadyState on the scatter-SpMV
// reference solver.
func (g *Generator) SolveSteadyStateReference() (map[string]float64, error) {
	return g.solveSteadyStateBaseline()
}
