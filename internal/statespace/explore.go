package statespace

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/san"
)

// This file exhaustively generates the tangible reachable state graph of a
// memoryless model whose instantaneous behavior terminates. Vanishing
// markings (those enabling an instantaneous activity) are eliminated on the
// fly: every timed firing is immediately closed under the simulator's
// instantaneous sweep, so only tangible states are interned and the emitted
// edges carry the path probability and accumulated impulse rewards of the
// elimination.
//
// One routine, fire, applies a firing, and it replicates the simulator
// exactly — input arcs, then input-gate transforms, then case selection with
// the simulator's mass normalization, then case output arcs and gates, then
// the activity's impulse rewards on the post-fire marking — so the generated
// CTMC is the chain the simulator samples, state for state and rate for
// rate. Timed firings and the vanishing sweep both go through it.
//
// Expanding a state is a pure function of its marking — enabling predicates,
// rates, gate transforms, case probabilities, and impulse rewards read only
// the marking and the immutable compiled model — so a BFS level can be
// expanded by any number of workers. Determinism is preserved by separating
// expansion from commitment: workers only record *proto* activations and
// edges (packed successor markings, probabilities, impulse vectors) into
// per-chunk buffers; a single merge pass then walks the chunks in state-index
// order and performs everything order-sensitive — rate-consistency checks,
// state interning (which assigns indices), transition assembly, budget
// accounting, and error selection. The merge sees the event sequence of a
// sequential BFS that expands one state at a time, so state numbering,
// transition order, refusal text, and budget behavior are identical at every
// parallelism, including parallelism 1.
//
// The chunk size is a fixed constant, not derived from the worker count, so
// chunk boundaries never depend on scheduling.

// exploreChunkSize is the number of frontier states per parallel expansion
// task.
const exploreChunkSize = 256

// exploreParallelMin is the frontier size below which a level is expanded
// inline: spawning workers for a handful of states costs more than it saves.
const exploreParallelMin = 64

// impulseBinding resolves one reward variable's impulse function for an
// activity (rebuilt from the compiled model's reward variables, which keep
// their bindings name-keyed).
type impulseBinding struct {
	rewardIndex int
	fn          san.ImpulseFunc
}

// exploreResult carries the exploration outcome into certificate assembly.
type exploreResult struct {
	err            error  // hard failure: negative marking, panicking closure, unstable sweep
	nonMemoryless  string // non-empty when a reachable state broke memorylessness
	budgetExceeded bool
	observedMax    []int // per-place maximum token count over all explored states
}

// outcome is one tangible result of a vanishing closure: the settled
// marking, the probability of the instantaneous-case path that led to it,
// and the impulse rewards earned along the path.
type outcome struct {
	mark []int
	prob float64
	imp  []float64
}

// emitFunc receives one firing branch or closure outcome: a marking, its
// probability, and its impulse vector (nil when no impulse was earned).
type emitFunc func(mark []int, prob float64, imp []float64) error

// timedRef caches per-activity facts the hot loop would otherwise re-derive
// per state: whether the delay is marking-independent (its rate then
// classifies once, here).
type timedRef struct {
	a       *san.Activity
	fixed   bool    // marking-independent delay: rate classified once
	rate    float64 // valid when fixed and rateErr == ""
	rateErr string  // non-empty: classification failure, raised when first enabled
}

// protoAct is one enabled activity recorded by a worker: the merge re-checks
// rate consistency and validity in state order before committing its edges.
type protoAct struct {
	tIdx    int32 // index into explorer.timed
	nEdges  int32
	rate    float64
	rateErr string
}

// protoEdge is one successor recorded by a worker: the packed marking (a view
// into the chunk arena), its hash, the total branch probability (case times
// vanishing path), and the impulse vector (nil when the firing earns none —
// impulse-free edges accumulate +0.0 either way).
type protoEdge struct {
	off, n int32
	hash   uint64
	prob   float64
	imp    []float64
}

// chunkOut is the expansion record of one chunk of frontier states.
type chunkOut struct {
	lo, hi  int
	actEnd  []int32 // per state: end index into acts (start = previous end)
	stopErr []error // per state: error that halted its expansion, if any
	acts    []protoAct
	edges   []protoEdge
	arena   []byte
}

// explorer holds the model facts every worker reads (the activity split,
// impulse bindings, per-activity rate facts) and the state table only the
// merge writes.
type explorer struct {
	cm        *san.CompiledModel
	inst      []*san.Activity
	timed     []timedRef
	nPlaces   int
	nRewards  int
	impulses  [][]impulseBinding // per activity index
	maxStates int
	par       int

	idx         *markIndex
	states      [][]int
	transitions [][]Transition
	observedMax []int
	overBudget  bool

	// First-seen rate per activity index. A different rate in another state
	// without reactivation breaks the CTMC (the clock is not resampled, so
	// the process is not memoryless).
	seenRate   []bool
	pinnedRate []float64

	packBuf []byte
}

// newExplorer builds the timed/instantaneous activity split, the
// per-activity rate facts, and the impulse bindings.
func newExplorer(cm *san.CompiledModel, opts Options) *explorer {
	model := cm.Model()
	ex := &explorer{
		cm:          cm,
		inst:        cm.Instantaneous(),
		nPlaces:     model.NumPlaces(),
		nRewards:    len(cm.Rewards()),
		maxStates:   opts.MaxStates,
		par:         opts.Parallelism,
		idx:         newMarkIndex(),
		observedMax: make([]int, model.NumPlaces()),
		seenRate:    make([]bool, model.NumActivities()),
		pinnedRate:  make([]float64, model.NumActivities()),
	}
	initial := markingVec(cm.InitialMarking())
	for _, a := range model.Activities() {
		if a.Kind() != san.Timed {
			continue
		}
		tr := timedRef{a: a}
		if a.FixedDelay() != nil {
			tr.fixed = true
			if r, err := activityRate(a, initial); err != nil {
				tr.rateErr = err.Error()
			} else {
				tr.rate = r
			}
		}
		ex.timed = append(ex.timed, tr)
	}
	// Rebuild the per-activity impulse bindings from the reward variables
	// (the compiled model's pre-resolved index is private to the simulator).
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

// explore runs the BFS. It assumes the memoryless and vanishing-loop
// pre-checks passed; it still re-derives rates per state and re-checks
// stability, because pre-checks at the initial marking cannot see
// marking-dependent behavior.
func explore(cm *san.CompiledModel, opts Options) (*Generator, exploreResult) {
	ex := newExplorer(cm, opts)
	gen := &Generator{cm: cm}
	res := exploreResult{}

	// Close the initial marking: it may itself be vanishing.
	var initOutcomes []outcome
	err := newExpander(ex).closeVanishing(cm.InitialMarking(), 1, nil, func(mark []int, prob float64, imp []float64) error {
		initOutcomes = append(initOutcomes, outcome{mark: slices.Clone(mark), prob: prob, imp: imp})
		return nil
	})
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

	if err := ex.run(); err != nil {
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

	gen.States = ex.states
	gen.Transitions = ex.transitions
	res.observedMax = ex.observedMax
	return gen, res
}

// nonMemorylessError classifies a reachable-state memorylessness failure so
// the certificate reports it as a refusal distinct from exploration errors.
type nonMemorylessError string

func (e nonMemorylessError) Error() string { return string(e) }

// run drives the level-synchronized BFS: each pass expands the states
// appended since the previous pass, in parallel when the frontier is large
// enough, and commits the results in state-index order.
func (ex *explorer) run() error {
	par := ex.par
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	exp := newExpander(ex)
	for lo := 0; lo < len(ex.states); {
		hi := len(ex.states)
		if par > 1 && hi-lo >= exploreParallelMin {
			if err := ex.runLevelParallel(lo, hi, par); err != nil {
				return err
			}
		} else {
			for si := lo; si < hi; si++ {
				exp.reset(si, si+1)
				exp.expandState(ex.states[si])
				if err := ex.merge(&exp.res); err != nil {
					return err
				}
				if ex.overBudget {
					return nil
				}
			}
		}
		if ex.overBudget {
			return nil
		}
		lo = hi
	}
	return nil
}

// runLevelParallel expands frontier states [lo,hi) with par workers pulling
// fixed-size chunks off an atomic counter, then merges the chunks in order.
// Workers never touch shared explorer state, so the schedule cannot affect
// the result.
func (ex *explorer) runLevelParallel(lo, hi, par int) error {
	nChunks := (hi - lo + exploreChunkSize - 1) / exploreChunkSize
	if par > nChunks {
		par = nChunks
	}
	results := make([]*expander, nChunks)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= nChunks {
					return
				}
				clo := lo + c*exploreChunkSize
				chi := clo + exploreChunkSize
				if chi > hi {
					chi = hi
				}
				e := newExpander(ex)
				e.reset(clo, chi)
				for si := clo; si < chi; si++ {
					e.expandState(ex.states[si])
				}
				results[c] = e
			}
		}()
	}
	wg.Wait()
	for _, e := range results {
		if err := ex.merge(&e.res); err != nil {
			return err
		}
		if ex.overBudget {
			return nil
		}
	}
	return nil
}

// intern interns an unpacked marking (initial-closure path).
func (ex *explorer) intern(mark []int) (int, bool) {
	ex.packBuf = packMarking(ex.packBuf[:0], mark)
	return ex.internPacked(ex.packBuf, hashBytes(ex.packBuf))
}

// internPacked resolves a packed marking to its state index, assigning the
// next index (and decoding the marking into the state table) on first sight.
// It returns ok=false with the budget flag set when the state cap is hit.
func (ex *explorer) internPacked(packed []byte, h uint64) (int, bool) {
	if si, ok := ex.idx.lookup(packed, h); ok {
		return si, true
	}
	if len(ex.states) >= ex.maxStates {
		ex.overBudget = true
		return 0, false
	}
	si := ex.idx.insert(packed, h)
	mark := unpackMarking(packed, ex.nPlaces)
	ex.states = append(ex.states, mark)
	ex.transitions = append(ex.transitions, nil)
	for pi, v := range mark {
		if v > ex.observedMax[pi] {
			ex.observedMax[pi] = v
		}
	}
	return si, true
}

// merge commits one chunk: it replays the recorded activations and edges in
// state-index order, performing the order-sensitive work — rate pinning and
// validity, interning, transition assembly, budget stops, and error raising —
// in the sequence a one-state-at-a-time BFS would.
func (ex *explorer) merge(res *chunkOut) error {
	actCursor, edgeCursor := 0, 0
	for k, si := 0, res.lo; si < res.hi; k, si = k+1, si+1 {
		for end := int(res.actEnd[k]); actCursor < end; actCursor++ {
			act := &res.acts[actCursor]
			a := ex.timed[act.tIdx].a
			if act.rateErr != "" {
				return nonMemorylessError(act.rateErr)
			}
			ai := a.Index()
			if ex.seenRate[ai] {
				if ex.pinnedRate[ai] != act.rate && !a.Reactivation() {
					return nonMemorylessError(fmt.Sprintf(
						"activity %q: marking-dependent rate (%g vs %g) without reactivation", a.Name(), act.rate, ex.pinnedRate[ai]))
				}
			} else {
				ex.seenRate[ai] = true
				ex.pinnedRate[ai] = act.rate
			}
			if act.rate <= 0 || math.IsInf(act.rate, 0) || math.IsNaN(act.rate) {
				return fmt.Errorf("activity %q: rate %g at state %d", a.Name(), act.rate, si)
			}
			for n := int32(0); n < act.nEdges; n++ {
				pe := &res.edges[edgeCursor]
				edgeCursor++
				ti, ok := ex.internPacked(res.arena[pe.off:pe.off+pe.n], pe.hash)
				if !ok {
					return nil // budget flag set; caller stops
				}
				ex.transitions[si] = append(ex.transitions[si], Transition{
					From: si, To: ti, Activity: a.Name(),
					Rate:     act.rate * pe.prob,
					Impulses: pe.imp,
				})
			}
		}
		if err := res.stopErr[k]; err != nil {
			return err
		}
	}
	return nil
}

// expander is one worker's expansion state: the chunk output under
// construction plus reusable firing scratch, so steady-state expansion
// allocates only on interning misses and impulse-carrying edges.
type expander struct {
	ex  *explorer
	res chunkOut

	// Timed and instantaneous firings keep separate scratch: a timed
	// firing's branches are closed under the vanishing sweep while its case
	// loop is still live.
	timed, inst firing
}

// firing is the scratch one firing works on: the post-input marking, the
// marking of the case being applied, and the case-probability buffers.
type firing struct {
	in, out       []int
	gw            guardedWriter
	masses, probs []float64
}

func newExpander(ex *explorer) *expander {
	return &expander{ex: ex}
}

func (e *expander) reset(lo, hi int) {
	e.res.lo, e.res.hi = lo, hi
	e.res.actEnd = e.res.actEnd[:0]
	e.res.stopErr = e.res.stopErr[:0]
	e.res.acts = e.res.acts[:0]
	e.res.edges = e.res.edges[:0]
	e.res.arena = e.res.arena[:0]
}

// expandState records the proto activations and edges of one marking. Errors
// that halt a state's expansion are recorded positionally (stopErr) rather
// than raised — the merge raises them in state order.
func (e *expander) expandState(mark []int) {
	ex := e.ex
	var stopErr error
	for ti := range ex.timed {
		tr := &ex.timed[ti]
		enabled, err := activityEnabled(tr.a, markingVec(mark))
		if err != nil {
			stopErr = err
			break
		}
		if !enabled {
			continue
		}
		rate, rateErr := tr.rate, tr.rateErr
		if !tr.fixed {
			if r, err := activityRate(tr.a, markingVec(mark)); err != nil {
				rate, rateErr = 0, err.Error()
			} else {
				rate, rateErr = r, ""
			}
		}
		e.res.acts = append(e.res.acts, protoAct{tIdx: int32(ti), rate: rate, rateErr: rateErr})
		if rateErr != "" {
			break
		}
		if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
			// Recorded with no edges: the merge stops at this activation
			// with the invalid-rate error before any firing.
			break
		}
		edges := len(e.res.edges)
		if err := e.fire(&e.timed, tr.a, mark, func(post []int, prob float64, imp []float64) error {
			return e.closeVanishing(post, prob, imp, e.pushEdge)
		}); err != nil {
			stopErr = err
			break
		}
		e.res.acts[len(e.res.acts)-1].nEdges = int32(len(e.res.edges) - edges)
	}
	e.res.actEnd = append(e.res.actEnd, int32(len(e.res.acts)))
	e.res.stopErr = append(e.res.stopErr, stopErr)
}

// fire applies one firing of activity a in marking mark — input arcs, then
// input-gate transforms, then case selection, then the case's output arcs
// and gates, then a's impulse rewards on the post-fire marking — and emits
// one branch per case with positive probability, in case order. It works on
// the scratch markings in s: an emitted marking is valid only during the
// emit call, so a caller that keeps it copies it. The emitted impulse vector
// is fresh (nil when a earns no impulse) and belongs to the caller.
func (e *expander) fire(s *firing, a *san.Activity, mark []int, emit emitFunc) error {
	// Input side, shared by all cases.
	s.in = append(s.in[:0], mark...)
	s.gw = guardedWriter{mark: s.in}
	for _, arc := range a.InputArcs() {
		s.gw.Add(arc.Place, -arc.Mult)
	}
	for _, g := range a.InputGates() {
		if g.Transform != nil {
			if err := runGate(a, g.Name, g.Transform, &s.gw); err != nil {
				return err
			}
		}
	}
	if s.gw.err != nil {
		return fmt.Errorf("activity %q: %v", a.Name(), s.gw.err)
	}

	cases := a.Cases()
	if len(cases) == 0 {
		// No cases: the simulator applies no output side.
		imp, err := e.impulses(a, s.in)
		if err != nil {
			return err
		}
		return emit(s.in, 1, imp)
	}
	probs := []float64{1}
	if len(cases) > 1 {
		if cap(s.masses) < len(cases) {
			s.masses = make([]float64, len(cases))
			s.probs = make([]float64, len(cases))
		}
		var err error
		if probs, err = caseProbsInto(a, s.in, s.masses[:len(cases)], s.probs[:len(cases)]); err != nil {
			return err
		}
	}
	for ci, c := range cases {
		if probs[ci] <= 0 {
			continue
		}
		s.out = append(s.out[:0], s.in...)
		s.gw = guardedWriter{mark: s.out}
		for _, arc := range c.OutputArcs {
			s.gw.Add(arc.Place, arc.Mult)
		}
		for _, og := range c.OutputGates {
			if og.Transform != nil {
				if err := runGate(a, og.Name, og.Transform, &s.gw); err != nil {
					return err
				}
			}
		}
		if s.gw.err != nil {
			return fmt.Errorf("activity %q: %v", a.Name(), s.gw.err)
		}
		imp, err := e.impulses(a, s.out)
		if err != nil {
			return err
		}
		if err := emit(s.out, probs[ci], imp); err != nil {
			return err
		}
	}
	return nil
}

// closeVanishing eliminates vanishing markings starting from mark: it runs
// the simulator's instantaneous sweep (model declaration order, scan
// continuing past each firing, sweeps repeating while anything fired),
// branching on probabilistic cases, and emits every tangible marking a path
// settles in. prob and imp seed the path probability and impulse
// accumulator; imp is updated in place.
func (e *expander) closeVanishing(mark []int, prob float64, imp []float64, emit emitFunc) error {
	if len(e.ex.inst) == 0 {
		return emit(mark, prob, imp)
	}
	return e.sweep(mark, prob, imp, 0, false, 0, emit)
}

// sweep is one pass over the instantaneous activities from index idx;
// firedThisSweep carries whether anything fired earlier in the pass. Every
// branch marking is copied off the firing scratch before the sweep goes on,
// because the next firing reuses it.
func (e *expander) sweep(mark []int, prob float64, imp []float64, idx int, firedThisSweep bool, sweeps int, emit emitFunc) error {
	inst := e.ex.inst
	for i := idx; i < len(inst); i++ {
		a := inst[i]
		enabled, err := activityEnabled(a, markingVec(mark))
		if err != nil {
			return err
		}
		if !enabled {
			continue
		}
		var branches []outcome
		if err := e.fire(&e.inst, a, mark, func(post []int, p float64, bimp []float64) error {
			branches = append(branches, outcome{mark: slices.Clone(post), prob: p, imp: bimp})
			return nil
		}); err != nil {
			return err
		}
		if len(branches) == 1 {
			b := branches[0]
			mark = b.mark
			imp = addImpulses(imp, b.imp)
			prob *= b.prob
			firedThisSweep = true
			continue
		}
		for _, b := range branches {
			if err := e.sweep(b.mark, prob*b.prob, addImpulses(slices.Clone(imp), b.imp), i+1, true, sweeps, emit); err != nil {
				return err
			}
		}
		return nil
	}
	if !firedThisSweep {
		return emit(mark, prob, imp)
	}
	if sweeps+1 > maxVanishingSweeps {
		return fmt.Errorf("instantaneous closure did not stabilize within %d sweeps", maxVanishingSweeps)
	}
	return e.sweep(mark, prob, imp, 0, false, sweeps+1, emit)
}

// addImpulses returns dst with src added in place, allocating dst when the
// path has earned nothing yet.
func addImpulses(dst, src []float64) []float64 {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = make([]float64, len(src))
	}
	for i := range src {
		dst[i] += src[i]
	}
	return dst
}

// impulses evaluates a's impulse rewards on the post-fire marking, or
// returns nil when the activity has no bindings (a nil impulse vector and an
// all-zero one contribute identically to every reward integral).
func (e *expander) impulses(a *san.Activity, mark []int) (imp []float64, err error) {
	bindings := e.ex.impulses[a.Index()]
	if len(bindings) == 0 {
		return nil, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: impulse reward panicked: %v", a.Name(), r)
		}
	}()
	imp = make([]float64, e.ex.nRewards)
	for _, ib := range bindings {
		imp[ib.rewardIndex] += ib.fn(markingVec(mark))
	}
	return imp, nil
}

// pushEdge packs the successor marking into the chunk arena and records the
// proto edge.
func (e *expander) pushEdge(mark []int, prob float64, imp []float64) error {
	off := int32(len(e.res.arena))
	e.res.arena = packMarking(e.res.arena, mark)
	packed := e.res.arena[off:]
	e.res.edges = append(e.res.edges, protoEdge{
		off: off, n: int32(len(packed)), hash: hashBytes(packed), prob: prob, imp: imp,
	})
	return nil
}

// caseProbsInto computes the selection probability of every case of a at the
// post-input marking into probs, using masses as scratch, replicating the
// simulator's defensive mass normalization (negative probabilities clamped,
// nil cases sharing the remaining mass, draws scaled by the total selectable
// mass). Both slices must have length len(a.Cases()) ≥ 2.
func caseProbsInto(a *san.Activity, mark []int, masses, probs []float64) ([]float64, error) {
	cases := a.Cases()
	var explicit float64
	nilCount := 0
	for i, c := range cases {
		if c.Probability == nil {
			nilCount++
			masses[i] = -1 // filled below
			continue
		}
		p, err := evalCaseProb(a, c, mark)
		if err != nil {
			return nil, err
		}
		masses[i] = math.Max(0, p)
		explicit += masses[i]
	}
	remainder := math.Max(0, 1-explicit)
	total := math.Max(1, explicit)
	if nilCount == 0 {
		total = explicit
	}
	clear(probs)
	if total <= 0 {
		// No selectable mass: the simulator's scan falls through to the last
		// case.
		probs[len(cases)-1] = 1
		return probs, nil
	}
	sum := 0.0
	for i := range cases {
		m := masses[i]
		if m < 0 {
			m = remainder / float64(nilCount)
		}
		p := m / total
		probs[i] += p
		sum += p
	}
	// Residual mass (total mass short of the draw range) falls through to
	// the last case in the simulator's scan.
	if sum < 1 {
		probs[len(cases)-1] += 1 - sum
	}
	return probs, nil
}

// evalCaseProb evaluates a case probability with panic recovery.
func evalCaseProb(a *san.Activity, c san.Case, mark []int) (p float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: case probability panicked: %v", a.Name(), r)
		}
	}()
	return c.Probability(markingVec(mark)), nil
}

// activityEnabled evaluates the enabling test with panic recovery (gate
// predicates are arbitrary closures).
func activityEnabled(a *san.Activity, m san.MarkingReader) (enabled bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q: enabling predicate panicked: %v", a.Name(), r)
		}
	}()
	return a.Enabled(m), nil
}

// runGate runs a gate transform against the guarded writer with panic
// recovery.
func runGate(a *san.Activity, gate string, f san.GateFunc, w *guardedWriter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("activity %q gate %q: transform panicked: %v", a.Name(), gate, r)
		}
	}()
	f(w)
	return nil
}

// guardedWriter is the exploration marking writer: it mirrors the
// simulator's negative-token panic as a recorded error, so an ill-formed
// firing becomes a structured exploration refusal instead of a crash.
type guardedWriter struct {
	mark []int
	err  error
}

func (w *guardedWriter) Tokens(p *san.Place) int { return w.mark[p.Index()] }

func (w *guardedWriter) SetTokens(p *san.Place, n int) {
	if n < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("place %q driven to %d tokens", p.Name(), n)
		}
		return
	}
	w.mark[p.Index()] = n
}

func (w *guardedWriter) Add(p *san.Place, delta int) { w.SetTokens(p, w.Tokens(p)+delta) }
