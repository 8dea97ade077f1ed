package statespace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/san"
	"repro/internal/statespace"
)

// buildComponentFarm builds n independent two-state components with distinct
// rates, a two-case failure branch (one case through an output gate), and
// both rate and impulse rewards. Its state space is the full 2^n hypercube
// with BFS levels up to C(n, n/2) states wide, so exploration at
// parallelism > 1 exercises the chunked level-parallel path.
func buildComponentFarm(t *testing.T, n int) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("farm")
	downs := make([]*san.Place, n)
	for i := 0; i < n; i++ {
		up := m.AddPlace(name("up", i), 1)
		down := m.AddPlace(name("down", i), 0)
		downs[i] = down
		fail := m.AddTimedActivity(name("fail", i), mustExpRate(t, 0.001*float64(i+1)))
		fail.AddInputArc(up, 1)
		fail.AddCase(san.Case{
			Probability: func(mr san.MarkingReader) float64 { return 0.7 },
			OutputArcs:  []san.Arc{{Place: down, Mult: 1}},
		})
		fail.AddCase(san.Case{
			Probability: func(mr san.MarkingReader) float64 { return 0.3 },
			OutputGates: []*san.OutputGate{{
				Name:      name("drop", i),
				Transform: func(mw san.MarkingWriter) { mw.SetTokens(down, 1) },
			}},
		})
		repair := m.AddTimedActivity(name("repair", i), mustExpRate(t, 0.05*float64(i+1)))
		repair.AddInputArc(down, 1)
		repair.AddOutputArc(up, 1)
	}
	cm, err := san.Compile(m, []san.RewardVariable{
		san.UpFraction("all_up", func(mr san.MarkingReader) bool {
			for _, d := range downs {
				if mr.Tokens(d) > 0 {
					return false
				}
			}
			return true
		}),
		san.CompletionCount("repairs0", name("repair", 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func name(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}

// certifyFarm certifies the component farm with the given options and fails
// the test on refusal.
func certifyFarm(t *testing.T, cm *san.CompiledModel, opts statespace.Options) *statespace.Generator {
	t.Helper()
	return certifyWith(t, statespace.Certify, cm, opts)
}

// certifyReference is certifyFarm on the sequential reference explorer.
func certifyReference(t *testing.T, cm *san.CompiledModel, opts statespace.Options) *statespace.Generator {
	t.Helper()
	return certifyWith(t, statespace.CertifyReference, cm, opts)
}

type certifyFunc func(*san.CompiledModel, statespace.Options) (*statespace.Generator, san.Certificate)

func certifyWith(t *testing.T, certify certifyFunc, cm *san.CompiledModel, opts statespace.Options) *statespace.Generator {
	t.Helper()
	gen, cert := certify(cm, opts)
	if !cert.Certified() {
		t.Fatalf("refused: %s", cert.Summary())
	}
	return gen
}

// sameChain asserts two generators are the same CTMC, state for state and
// bit for bit. Impulse vectors are compared semantically: the production
// explorer emits nil for impulse-free edges where the reference emits an
// all-zero vector, and the two contribute identically to every reward.
func sameChain(t *testing.T, got, want *statespace.Generator) {
	t.Helper()
	if len(got.States) != len(want.States) {
		t.Fatalf("state count: got %d want %d", len(got.States), len(want.States))
	}
	for si := range want.States {
		gm, wm := got.States[si], want.States[si]
		for pi := range wm {
			if gm[pi] != wm[pi] {
				t.Fatalf("state %d marking differs at place %d: got %d want %d", si, pi, gm[pi], wm[pi])
			}
		}
	}
	if len(got.Initial) != len(want.Initial) {
		t.Fatalf("initial atoms: got %d want %d", len(got.Initial), len(want.Initial))
	}
	for i := range want.Initial {
		if got.Initial[i] != want.Initial[i] {
			t.Fatalf("initial atom %d: got %+v want %+v", i, got.Initial[i], want.Initial[i])
		}
	}
	for ri := range want.InitialImpulses {
		if got.InitialImpulses[ri] != want.InitialImpulses[ri] {
			t.Fatalf("initial impulse %d: got %v want %v", ri, got.InitialImpulses[ri], want.InitialImpulses[ri])
		}
	}
	for si := range want.Transitions {
		ge, we := got.Transitions[si], want.Transitions[si]
		if len(ge) != len(we) {
			t.Fatalf("state %d: got %d edges want %d", si, len(ge), len(we))
		}
		for k := range we {
			g, w := ge[k], we[k]
			if g.From != w.From || g.To != w.To || g.Activity != w.Activity ||
				math.Float64bits(g.Rate) != math.Float64bits(w.Rate) {
				t.Fatalf("state %d edge %d: got %+v want %+v", si, k, g, w)
			}
			n := len(g.Impulses)
			if len(w.Impulses) > n {
				n = len(w.Impulses)
			}
			for ri := 0; ri < n; ri++ {
				var gi, wi float64
				if ri < len(g.Impulses) {
					gi = g.Impulses[ri]
				}
				if ri < len(w.Impulses) {
					wi = w.Impulses[ri]
				}
				if math.Float64bits(gi) != math.Float64bits(wi) {
					t.Fatalf("state %d edge %d impulse %d: got %v want %v", si, k, ri, gi, wi)
				}
			}
		}
	}
}

// TestExploreFastMatchesBaseline checks the interned explorer against the
// sequential reference explorer on the hypercube fixture: identical
// state numbering, markings, initial distribution, and edges, at
// parallelism 1 and at a worker count far above the chunk count.
func TestExploreFastMatchesBaseline(t *testing.T) {
	cm := buildComponentFarm(t, 8)
	ref := certifyReference(t, cm, statespace.Options{})
	if len(ref.States) != 256 {
		t.Fatalf("fixture: got %d states, want 256", len(ref.States))
	}
	for _, par := range []int{1, 8} {
		fast := certifyFarm(t, cm, statespace.Options{Parallelism: par})
		sameChain(t, fast, ref)
	}
}

// TestExploreFastMatchesBaselineVanishing repeats the differential check on
// a model with instantaneous activities, covering the vanishing-elimination
// route of the production explorer.
func TestExploreFastMatchesBaselineVanishing(t *testing.T) {
	build := func() *san.CompiledModel {
		m := san.NewModel("vanish")
		up := m.AddPlace("up", 2)
		staged := m.AddPlace("staged", 0)
		downA := m.AddPlace("down_a", 0)
		downB := m.AddPlace("down_b", 0)
		fail := m.AddTimedActivity("fail", mustExpRate(t, 0.01))
		fail.AddInputArc(up, 1)
		fail.AddOutputArc(staged, 1)
		route := m.AddInstantaneousActivity("route")
		route.AddInputArc(staged, 1)
		route.AddCase(san.Case{
			Probability: func(mr san.MarkingReader) float64 { return 0.5 },
			OutputArcs:  []san.Arc{{Place: downA, Mult: 1}},
		})
		route.AddCase(san.Case{
			Probability: func(mr san.MarkingReader) float64 { return 0.5 },
			OutputArcs:  []san.Arc{{Place: downB, Mult: 1}},
		})
		repairA := m.AddTimedActivity("repair_a", mustExpRate(t, 0.2))
		repairA.AddInputArc(downA, 1)
		repairA.AddOutputArc(up, 1)
		repairB := m.AddTimedActivity("repair_b", mustExpRate(t, 0.3))
		repairB.AddInputArc(downB, 1)
		repairB.AddOutputArc(up, 1)
		cm, err := san.Compile(m, []san.RewardVariable{
			san.UpFraction("avail", func(mr san.MarkingReader) bool { return mr.Tokens(up) > 0 }),
			san.CompletionCount("routed", "route"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	ref := certifyReference(t, build(), statespace.Options{})
	fast := certifyFarm(t, build(), statespace.Options{Parallelism: 4})
	sameChain(t, fast, ref)
}

// TestExploreGoldenNumbering pins the state numbering of the hypercube
// fixture to a golden digest. The reference and production explorers are
// required to agree with each other *and* with this constant, so neither can
// silently drift — the interned index must keep assigning indices in the
// reference discovery order.
func TestExploreGoldenNumbering(t *testing.T) {
	const golden = "c4ad5665ce507fab4bd04e4f95bb3e4bc8a543d60056960d57949dd0b445d6a4"
	cm := buildComponentFarm(t, 8)
	for _, tc := range []struct {
		name    string
		certify certifyFunc
		opts    statespace.Options
	}{
		{"reference", statespace.CertifyReference, statespace.Options{}},
		{"default", statespace.Certify, statespace.Options{}},
		{"parallelism 8", statespace.Certify, statespace.Options{Parallelism: 8}},
	} {
		gen := certifyWith(t, tc.certify, cm, tc.opts)
		h := sha256.New()
		var buf [8]byte
		for _, mark := range gen.States {
			for _, v := range mark {
				binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != golden {
			t.Fatalf("state numbering drifted (%s):\n got %s\nwant %s", tc.name, got, golden)
		}
	}
}

// TestSolveBitIdenticalAcrossParallelism runs explore + SolveTransient +
// SolveSteadyState at parallelism 1 and at several higher worker counts and
// asserts the reward maps are bit-identical: the fixed-chunk kernels must
// make the worker count unobservable in the floating-point result.
func TestSolveBitIdenticalAcrossParallelism(t *testing.T) {
	cm := buildComponentFarm(t, 8)
	base := certifyFarm(t, cm, statespace.Options{Parallelism: 1})
	wantTr, err := base.SolveTransient(5000)
	if err != nil {
		t.Fatal(err)
	}
	wantSS, err := base.SolveSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		gen := certifyFarm(t, cm, statespace.Options{Parallelism: par})
		gotTr, err := gen.SolveTransient(5000)
		if err != nil {
			t.Fatal(err)
		}
		gotSS, err := gen.SolveSteadyState()
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range wantTr {
			if math.Float64bits(gotTr[name]) != math.Float64bits(want) {
				t.Errorf("parallelism %d: transient %q = %v, want bit-identical %v", par, name, gotTr[name], want)
			}
		}
		for name, want := range wantSS {
			if math.Float64bits(gotSS[name]) != math.Float64bits(want) {
				t.Errorf("parallelism %d: steady-state %q = %v, want bit-identical %v", par, name, gotSS[name], want)
			}
		}
	}
}

// TestFastSolverMatchesBaselineNumerically checks the gather kernels against
// the scatter reference solvers on the reference explorer's chain: same
// series, results equal to reassociation-level tolerance.
func TestFastSolverMatchesBaselineNumerically(t *testing.T) {
	cm := buildComponentFarm(t, 6)
	ref := certifyReference(t, cm, statespace.Options{})
	fast := certifyFarm(t, cm, statespace.Options{Parallelism: 4})
	want, err := ref.SolveTransientReference(5000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fast.SolveTransient(5000)
	if err != nil {
		t.Fatal(err)
	}
	sameRewards(t, "transient", got, want)

	wantSS, err := ref.SolveSteadyStateReference()
	if err != nil {
		t.Fatal(err)
	}
	gotSS, err := fast.SolveSteadyState()
	if err != nil {
		t.Fatal(err)
	}
	sameRewards(t, "steady-state", gotSS, wantSS)
}

// sameRewards asserts two reward maps name the same rewards with values
// equal to reassociation-level tolerance.
func sameRewards(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rewards, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if diff := math.Abs(got[name] - w); diff > 1e-9*(1+math.Abs(w)) {
			t.Errorf("%s reward %q: production %v vs reference %v (diff %g)", what, name, got[name], w, diff)
		}
	}
}

// TestExploreFastRefusalsMatchBaseline checks that the production explorer
// reproduces the reference explorer's refusals — text and classification —
// for marking-dependent rates without reactivation and for budget overruns.
func TestExploreFastRefusalsMatchBaseline(t *testing.T) {
	build := func() *san.CompiledModel {
		m := san.NewModel("nm")
		p := m.AddPlace("p", 2)
		q := m.AddPlace("q", 0)
		// Marking-dependent rate without reactivation: refused during
		// exploration, not at the initial-marking pre-check.
		a := m.AddTimedActivityFunc("drain", func(mr san.MarkingReader) dist.Distribution {
			return mustExpRate(t, float64(1+mr.Tokens(p)))
		})
		a.AddInputArc(p, 1)
		a.AddOutputArc(q, 1)
		cm, err := san.Compile(m, []san.RewardVariable{
			san.UpFraction("up", func(mr san.MarkingReader) bool { return mr.Tokens(p) > 0 }),
		})
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	_, refCert := statespace.CertifyReference(build(), statespace.Options{})
	_, fastCert := statespace.Certify(build(), statespace.Options{Parallelism: 4})
	if refCert.Certified() || fastCert.Certified() {
		t.Fatal("fixture unexpectedly certified")
	}
	if got, want := fastCert.Summary(), refCert.Summary(); got != want {
		t.Fatalf("refusal text differs:\nproduction: %s\nreference:  %s", got, want)
	}

	// Budget overrun: both paths must stop at the same budget with the same
	// refusal.
	cm := buildComponentFarm(t, 8)
	_, refCert = statespace.CertifyReference(cm, statespace.Options{MaxStates: 100})
	_, fastCert = statespace.Certify(cm, statespace.Options{Parallelism: 4, MaxStates: 100})
	if refCert.Certified() || fastCert.Certified() {
		t.Fatal("budget fixture unexpectedly certified")
	}
	if got, want := fastCert.Summary(), refCert.Summary(); got != want {
		t.Fatalf("budget refusal differs:\nproduction: %s\nreference:  %s", got, want)
	}
}

// buildVanishingFarm builds n components whose failures pass through an
// instantaneous router, so every timed firing is closed under the vanishing
// sweep. The timed failure has an input-gate transform, a case through an
// output gate, case probabilities that depend on how many components are
// down, and a marking-dependent impulse reward; the router's case
// probabilities are marking-dependent too, and the router and the
// single-case notifier in front of it earn their own impulses. Each
// component is up, soft-down or hard-down (staged and pending are
// vanishing), so
// the chain has 3^n states with BFS levels wide enough for the parallel
// expansion path.
func buildVanishingFarm(t *testing.T, n int) *san.CompiledModel {
	t.Helper()
	m := san.NewModel("vanishing-farm")
	ups := make([]*san.Place, n)
	hards := make([]*san.Place, n)
	for i := 0; i < n; i++ {
		ups[i] = m.AddPlace(name("up", i), 1)
		hards[i] = m.AddPlace(name("hard", i), 0)
	}
	down := func(mr san.MarkingReader) int {
		k := 0
		for _, up := range ups {
			k += 1 - mr.Tokens(up)
		}
		return k
	}
	hardCount := func(mr san.MarkingReader) int {
		k := 0
		for _, h := range hards {
			k += mr.Tokens(h)
		}
		return k
	}
	failures := map[string]san.ImpulseFunc{}
	for i := 0; i < n; i++ {
		up, hard := ups[i], hards[i]
		soft := m.AddPlace(name("soft", i), 0)
		staged := m.AddPlace(name("staged", i), 0)
		fail := m.AddTimedActivity(name("fail", i), mustExpRate(t, 0.002*float64(i+1)))
		fail.AddInputGate(&san.InputGate{
			Name:      name("take", i),
			Reads:     []*san.Place{up},
			Enabled:   func(mr san.MarkingReader) bool { return mr.Tokens(up) > 0 },
			Transform: func(mw san.MarkingWriter) { mw.Add(up, -1) },
		})
		fail.AddCase(san.Case{
			Probability: func(mr san.MarkingReader) float64 { return 0.3 + 0.1*float64(down(mr)) },
			OutputGates: []*san.OutputGate{{
				Name:      name("stage", i),
				Transform: func(mw san.MarkingWriter) { mw.SetTokens(staged, 1) },
			}},
		})
		fail.AddCase(san.Case{OutputArcs: []san.Arc{{Place: soft, Mult: 1}}})
		// Earned on the post-fire marking, so a staged failure counts more.
		failures[fail.Name()] = func(mr san.MarkingReader) float64 {
			return float64(1 + hardCount(mr) + 2*mr.Tokens(staged))
		}

		// The router is declared before the single-case notifier that feeds
		// it, so closing a staged failure takes a second sweep.
		pending := m.AddPlace(name("pending", i), 0)
		route := m.AddInstantaneousActivity(name("route", i))
		route.AddInputArc(pending, 1)
		route.AddCase(san.Case{
			Probability: func(mr san.MarkingReader) float64 { return 1 / float64(2+hardCount(mr)) },
			OutputArcs:  []san.Arc{{Place: hard, Mult: 1}},
		})
		route.AddCase(san.Case{OutputArcs: []san.Arc{{Place: soft, Mult: 1}}})
		m.AddInstantaneousActivity(name("notify", i)).AddInputArc(staged, 1).AddOutputArc(pending, 1)

		m.AddTimedActivity(name("fix", i), mustExpRate(t, 0.05*float64(i+1))).AddInputArc(soft, 1).AddOutputArc(up, 1)
		m.AddTimedActivity(name("rebuild", i), mustExpRate(t, 0.01*float64(i+1))).AddInputArc(hard, 1).AddOutputArc(up, 1)
	}
	cm, err := san.Compile(m, []san.RewardVariable{
		san.UpFraction("all_up", func(mr san.MarkingReader) bool { return down(mr) == 0 }),
		{Name: "failures", Mode: san.Accumulated, Impulses: failures},
		san.CompletionCount("routed0", name("route", 0)),
		san.CompletionCount("notified", name("notify", 0), name("notify", 1)),
		{Name: "hard_at_end", Mode: san.InstantAtEnd, Rate: func(mr san.MarkingReader) float64 { return float64(hardCount(mr)) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestVanishingFiringMatchesReference checks the production explorer and
// transient solver against the reference on a model whose timed firings use
// every step of the firing routine and are each closed under the vanishing
// sweep, at parallelism 1 and 4.
func TestVanishingFiringMatchesReference(t *testing.T) {
	const n = 7 // widest BFS levels span three expansion chunks
	ref := certifyReference(t, buildVanishingFarm(t, n), statespace.Options{})
	if want := int(math.Pow(3, n)); len(ref.States) != want {
		t.Fatalf("fixture: got %d states, want %d", len(ref.States), want)
	}
	want, err := ref.SolveTransientReference(2000)
	if err != nil {
		t.Fatal(err)
	}
	if want["failures"] <= 0 || want["routed0"] <= 0 || want["notified"] <= 0 {
		t.Fatalf("fixture earns no impulses: %v", want)
	}
	for _, par := range []int{1, 4} {
		gen := certifyFarm(t, buildVanishingFarm(t, n), statespace.Options{Parallelism: par})
		sameChain(t, gen, ref)
		got, err := gen.SolveTransient(2000)
		if err != nil {
			t.Fatal(err)
		}
		sameRewards(t, "transient", got, want)
	}
}
