package statespace

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/san"
)

// This file is the test oracle of the package: a sequential reference
// explorer (string-keyed interning, one allocation per firing branch, a
// recursive vanishing closure over fresh markings) and scatter-SpMV
// transient and steady-state solvers. It shares only the closure-evaluation
// helpers with the production code (enabling, rates, gate transforms, case
// probabilities), so the differential tests compare two independent
// implementations of exploration, firing and solving. export_test.go exposes
// it to the external tests.

// refExplorer is the sequential reference explorer.
type refExplorer struct {
	cm        *san.CompiledModel
	inst      []*san.Activity
	timed     []*san.Activity
	nPlaces   int
	nRewards  int
	impulses  [][]impulseBinding // per activity index
	maxStates int

	states      [][]int
	index       map[string]int
	transitions [][]Transition
	observedMax []int
	overBudget  bool

	// firstRate pins the rate an activity showed when first seen enabled; a
	// different rate in another state without reactivation breaks the CTMC
	// (the clock is not resampled, so the process is not memoryless).
	firstRate map[int]float64
}

// newRefExplorer builds the reference explorer's semantic core: the
// timed/instantaneous activity split and the per-activity impulse bindings.
func newRefExplorer(cm *san.CompiledModel, opts Options) *refExplorer {
	model := cm.Model()
	ex := &refExplorer{
		cm:        cm,
		inst:      cm.Instantaneous(),
		nPlaces:   model.NumPlaces(),
		nRewards:  len(cm.Rewards()),
		maxStates: opts.MaxStates,
		index:     make(map[string]int),
		firstRate: make(map[int]float64),
	}
	for _, a := range model.Activities() {
		if a.Kind() == san.Timed {
			ex.timed = append(ex.timed, a)
		}
	}
	ex.observedMax = make([]int, ex.nPlaces)
	// Reward order, then sorted activity names within each reward, matching
	// the simulator's deterministic accumulation order.
	ex.impulses = make([][]impulseBinding, model.NumActivities())
	for ri, rv := range cm.Rewards() {
		names := make([]string, 0, len(rv.Impulses))
		for name := range rv.Impulses {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := model.Activity(name)
			if a == nil {
				continue
			}
			ex.impulses[a.Index()] = append(ex.impulses[a.Index()], impulseBinding{rewardIndex: ri, fn: rv.Impulses[name]})
		}
	}
	return ex
}

// exploreBaseline is the reference BFS: it expands states one at a time in
// index order and interns successors as they are found.
func exploreBaseline(cm *san.CompiledModel, opts Options) (*Generator, exploreResult) {
	ex := newRefExplorer(cm, opts)
	gen := &Generator{cm: cm}
	res := exploreResult{}

	// Close the initial marking: it may itself be vanishing.
	initOutcomes, err := ex.closeVanishing(cm.InitialMarking(), 1, make([]float64, ex.nRewards))
	if err != nil {
		res.err = err
		return nil, res
	}
	gen.InitialImpulses = make([]float64, ex.nRewards)
	for _, o := range initOutcomes {
		si, ok := ex.intern(o.mark)
		if !ok {
			res.budgetExceeded = true
			return nil, res
		}
		gen.Initial = append(gen.Initial, StateProb{State: si, Prob: o.prob})
		for ri := range o.imp {
			gen.InitialImpulses[ri] += o.prob * o.imp[ri]
		}
	}

	for next := 0; next < len(ex.states); next++ {
		if err := ex.expand(next); err != nil {
			if nm, isNM := err.(nonMemorylessError); isNM {
				res.nonMemoryless = string(nm)
			} else {
				res.err = err
			}
			return nil, res
		}
		if ex.overBudget {
			res.budgetExceeded = true
			return nil, res
		}
	}

	gen.States = ex.states
	gen.Transitions = ex.transitions
	res.observedMax = ex.observedMax
	return gen, res
}

// stateKey encodes a marking vector as a map key.
func stateKey(mark []int) string {
	buf := make([]byte, 8*len(mark))
	for i, v := range mark {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(v)))
	}
	return string(buf)
}

// intern resolves a marking to its state index; overBudget is set when the
// state budget is exhausted.
func (ex *refExplorer) intern(mark []int) (int, bool) {
	key := stateKey(mark)
	if si, ok := ex.index[key]; ok {
		return si, true
	}
	if len(ex.states) >= ex.maxStates {
		ex.overBudget = true
		return 0, false
	}
	si := len(ex.states)
	ex.index[key] = si
	ex.states = append(ex.states, append([]int(nil), mark...))
	ex.transitions = append(ex.transitions, nil)
	for pi, v := range mark {
		if v > ex.observedMax[pi] {
			ex.observedMax[pi] = v
		}
	}
	return si, true
}

// expand generates the outgoing edges of tangible state si.
func (ex *refExplorer) expand(si int) error {
	mark := ex.states[si]
	for _, a := range ex.timed {
		enabled, err := activityEnabled(a, markingVec(mark))
		if err != nil {
			return err
		}
		if !enabled {
			continue
		}
		rate, err := activityRate(a, markingVec(mark))
		if err != nil {
			return nonMemorylessError(err.Error())
		}
		if prev, seen := ex.firstRate[a.Index()]; seen {
			if prev != rate && !a.Reactivation() {
				return nonMemorylessError(fmt.Sprintf(
					"activity %q: marking-dependent rate (%g vs %g) without reactivation", a.Name(), rate, prev))
			}
		} else {
			ex.firstRate[a.Index()] = rate
		}
		if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
			return fmt.Errorf("activity %q: rate %g at state %d", a.Name(), rate, si)
		}
		branches, err := ex.fireBranches(mark, a)
		if err != nil {
			return err
		}
		for _, b := range branches {
			outs, err := ex.closeVanishing(b.mark, b.prob, b.imp)
			if err != nil {
				return err
			}
			for _, o := range outs {
				ti, ok := ex.intern(o.mark)
				if !ok {
					return nil // budget flag set; caller stops
				}
				ex.transitions[si] = append(ex.transitions[si], Transition{
					From: si, To: ti, Activity: a.Name(),
					Rate:     rate * o.prob,
					Impulses: o.imp,
				})
			}
		}
	}
	return nil
}

// fireBranches fires activity a in marking mark, returning one branch per
// probabilistic case with positive probability. Each branch's marking has
// the full firing applied (input arcs, input-gate transforms, case outputs)
// and its impulse vector holds a's impulse rewards evaluated on the
// post-fire marking, exactly as the simulator earns them.
func (ex *refExplorer) fireBranches(mark []int, a *san.Activity) ([]outcome, error) {
	// Input side, shared by all cases.
	in := &guardedWriter{mark: append([]int(nil), mark...)}
	for _, arc := range a.InputArcs() {
		in.Add(arc.Place, -arc.Mult)
	}
	for _, g := range a.InputGates() {
		if g.Transform != nil {
			if err := runGate(a, g.Name, g.Transform, in); err != nil {
				return nil, err
			}
		}
	}
	if in.err != nil {
		return nil, fmt.Errorf("activity %q: %v", a.Name(), in.err)
	}

	cases := a.Cases()
	if len(cases) == 0 {
		// No cases: the simulator applies no output side.
		imp := make([]float64, ex.nRewards)
		if err := ex.addImpulses(a, in.mark, imp); err != nil {
			return nil, err
		}
		return []outcome{{mark: in.mark, prob: 1, imp: imp}}, nil
	}

	probs, err := caseProbs(a, in.mark)
	if err != nil {
		return nil, err
	}

	var branches []outcome
	for ci := range cases {
		p := probs[ci]
		if p <= 0 {
			continue
		}
		w := &guardedWriter{mark: append([]int(nil), in.mark...)}
		c := cases[ci]
		for _, arc := range c.OutputArcs {
			w.Add(arc.Place, arc.Mult)
		}
		for _, og := range c.OutputGates {
			if og.Transform != nil {
				if err := runGate(a, og.Name, og.Transform, w); err != nil {
					return nil, err
				}
			}
		}
		if w.err != nil {
			return nil, fmt.Errorf("activity %q: %v", a.Name(), w.err)
		}
		imp := make([]float64, ex.nRewards)
		if err := ex.addImpulses(a, w.mark, imp); err != nil {
			return nil, err
		}
		branches = append(branches, outcome{mark: w.mark, prob: p, imp: imp})
	}
	return branches, nil
}

// caseProbs computes the selection probability of every case of a at the
// post-input marking.
func caseProbs(a *san.Activity, mark []int) ([]float64, error) {
	cases := a.Cases()
	if len(cases) == 1 {
		return []float64{1}, nil
	}
	return caseProbsInto(a, mark, make([]float64, len(cases)), make([]float64, len(cases)))
}

// addImpulses accumulates a's impulse rewards evaluated at the post-fire
// marking into imp.
func (ex *refExplorer) addImpulses(a *san.Activity, mark []int, imp []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: impulse reward panicked: %v", a.Name(), r)
		}
	}()
	for _, ib := range ex.impulses[a.Index()] {
		imp[ib.rewardIndex] += ib.fn(markingVec(mark))
	}
	return nil
}

// closeVanishing eliminates vanishing markings starting from mark: it runs
// the simulator's instantaneous sweep (model declaration order, scan
// continuing past each firing, sweeps repeating while anything fired),
// branching on probabilistic cases, until every path settles in a tangible
// marking. prob and imp seed the path probability and impulse accumulator.
func (ex *refExplorer) closeVanishing(mark []int, prob float64, imp []float64) ([]outcome, error) {
	if len(ex.inst) == 0 {
		return []outcome{{mark: mark, prob: prob, imp: imp}}, nil
	}
	var out []outcome
	if err := ex.sweep(mark, prob, imp, 0, false, 0, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// sweep is one pass over the instantaneous activities from index idx;
// firedThisSweep carries whether anything fired earlier in the pass.
func (ex *refExplorer) sweep(mark []int, prob float64, imp []float64, idx int, firedThisSweep bool, sweeps int, out *[]outcome) error {
	for i := idx; i < len(ex.inst); i++ {
		a := ex.inst[i]
		enabled, err := activityEnabled(a, markingVec(mark))
		if err != nil {
			return err
		}
		if !enabled {
			continue
		}
		branches, err := ex.fireBranches(mark, a)
		if err != nil {
			return err
		}
		if len(branches) == 1 {
			b := branches[0]
			mark = b.mark
			imp = addVec(imp, b.imp, 1)
			prob *= b.prob
			firedThisSweep = true
			continue
		}
		for _, b := range branches {
			if err := ex.sweep(b.mark, prob*b.prob, addVec(append([]float64(nil), imp...), b.imp, 1), i+1, true, sweeps, out); err != nil {
				return err
			}
		}
		return nil
	}
	if !firedThisSweep {
		*out = append(*out, outcome{mark: mark, prob: prob, imp: imp})
		return nil
	}
	if sweeps+1 > maxVanishingSweeps {
		return fmt.Errorf("instantaneous closure did not stabilize within %d sweeps", maxVanishingSweeps)
	}
	return ex.sweep(mark, prob, imp, 0, false, sweeps+1, out)
}

// addVec returns dst with scale·src added in place.
func addVec(dst, src []float64, scale float64) []float64 {
	for i := range src {
		dst[i] += scale * src[i]
	}
	return dst
}

// csr is the uniformized transition matrix P = I + Q/Λ in compressed sparse
// row form, with self-loop edges excluded from the dynamics (they do not
// move probability) but retained in the impulse flux.
type csr struct {
	rowStart []int
	colIdx   []int
	val      []float64
	stay     []float64 // diagonal: 1 - exit_s/Λ
}

// step computes dst = v·P.
func (m *csr) step(dst, v []float64) {
	for i := range dst {
		dst[i] = v[i] * m.stay[i]
	}
	for s := range m.stay {
		if v[s] == 0 {
			continue
		}
		for k := m.rowStart[s]; k < m.rowStart[s+1]; k++ {
			dst[m.colIdx[k]] += v[s] * m.val[k]
		}
	}
}

// buildCSR merges the generator's parallel edges into the uniformized matrix
// at rate lambda. Off-diagonal mass comes from edges with From != To; the
// exit rate likewise excludes self-loops (a self-loop edge leaves the
// distribution unchanged).
func (g *Generator) buildCSR(lambda float64) *csr {
	n := len(g.States)
	m := &csr{rowStart: make([]int, n+1), stay: make([]float64, n)}
	for s := 0; s < n; s++ {
		m.rowStart[s] = len(m.colIdx)
		// Merge parallel edges per destination, preserving first-seen
		// destination order for deterministic accumulation.
		offset := map[int]int{}
		exit := 0.0
		for _, t := range g.Transitions[s] {
			if t.To == s {
				continue
			}
			exit += t.Rate
			if k, ok := offset[t.To]; ok {
				m.val[k] += t.Rate / lambda
				continue
			}
			offset[t.To] = len(m.colIdx)
			m.colIdx = append(m.colIdx, t.To)
			m.val = append(m.val, t.Rate/lambda)
		}
		m.stay[s] = 1 - exit/lambda
	}
	m.rowStart[n] = len(m.colIdx)
	return m
}

// solveTransientBaseline is the sequential scatter-SpMV reference of
// SolveTransient: the same series, weights, tolerances and steady-state
// collapse, one row at a time.
func (g *Generator) solveTransientBaseline(T float64) (map[string]float64, error) {
	if !(T > 0) || math.IsInf(T, 0) {
		return nil, fmt.Errorf("%w: mission time %v", ErrSolve, T)
	}
	n := len(g.States)
	pi := make([]float64, n)      // π(T)
	sojourn := make([]float64, n) // L(T)
	for _, sp := range g.Initial {
		pi[sp.State] = sp.Prob
	}

	lambda := g.maxExitRate()
	if lambda == 0 {
		// No timed behavior: the chain sits in its initial distribution.
		for s, p := range pi {
			sojourn[s] = p * T
		}
		return g.evalRewards(pi, sojourn, T)
	}
	lt := lambda * T
	if lt > maxUniformizationConstant {
		return nil, fmt.Errorf("%w: uniformization constant %v too large", ErrSolve, lt)
	}

	P := g.buildCSR(lambda)
	v := make([]float64, n)
	for _, sp := range g.Initial {
		v[sp.State] = sp.Prob
	}
	next := make([]float64, n)

	logWeight := -lt // log PMF at n=0
	w := math.Exp(logWeight)
	accumulated := w
	out := make([]float64, n)
	for s := range v {
		out[s] = w * v[s]
		// P(N > 0) = 1 - w.
		sojourn[s] = (1 - accumulated) * v[s] / lambda
	}
	copy(pi, out)
	usedTime := (1 - accumulated) / lambda

	const tol = 1e-12
	const ssTol = 1e-13
	maxIter := int(lt + 12*math.Sqrt(lt+1) + 50)
	for it := 1; it <= maxIter; it++ {
		P.step(next, v)
		v, next = next, v
		logWeight += math.Log(lt) - math.Log(float64(it))
		w = math.Exp(logWeight)
		accumulated += w
		tail := 1 - accumulated
		if tail < 0 {
			tail = 0
		}
		for s := range v {
			pi[s] += w * v[s]
			sojourn[s] += tail * v[s] / lambda
		}
		usedTime += tail / lambda
		if it > int(lt) && 1-accumulated < tol {
			break
		}
		diff := 0.0
		for s := range v {
			diff += math.Abs(v[s] - next[s])
		}
		if diff < ssTol {
			remMass := 1 - accumulated
			if remMass < 0 {
				remMass = 0
			}
			remTime := T - usedTime
			if remTime < 0 {
				remTime = 0
			}
			for s := range v {
				pi[s] += remMass * v[s]
				sojourn[s] += remTime * v[s]
			}
			break
		}
	}
	return g.evalRewards(pi, sojourn, T)
}

// solveSteadyStateBaseline is the sequential scatter-SpMV reference of
// SolveSteadyState: the same power iteration at 1.05× the maximal exit rate.
func (g *Generator) solveSteadyStateBaseline() (map[string]float64, error) {
	n := len(g.States)
	pi := make([]float64, n)
	for _, sp := range g.Initial {
		pi[sp.State] = sp.Prob
	}
	lambda := g.maxExitRate()
	if lambda > 0 {
		P := g.buildCSR(lambda * 1.05)
		next := make([]float64, n)
		const tol = 1e-14
		maxIter := 5_000_000
		converged := false
		for it := 0; it < maxIter; it++ {
			P.step(next, pi)
			diff := 0.0
			for s := range next {
				diff += math.Abs(next[s] - pi[s])
			}
			pi, next = next, pi
			if diff < tol {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("%w: steady-state power iteration did not converge within %d steps", ErrSolve, maxIter)
		}
	}
	return g.longRunRewards(pi)
}
