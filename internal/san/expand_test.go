package san

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dist"
)

func mustErlang(t *testing.T, k int, rate float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewErlang(k, rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustUniform(t *testing.T, lo, hi float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewUniform(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustExpRate(t *testing.T, rate float64) dist.Exponential {
	t.Helper()
	d, err := dist.NewExponentialFromRate(rate)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestExpandPhasesErlangStructure pins the chain the pass builds for a
// 3-stage Erlang: two fresh phase places, a gate-guarded first stage, one
// pass-through middle stage, and the original activity as the final stage
// with an extra input arc and an exponential delay.
func TestExpandPhasesErlangStructure(t *testing.T) {
	m := NewModel("expand-structure")
	pending := m.AddPlace("pending", 1)
	done := m.AddPlace("done", 0)
	m.AddTimedActivity("repair", mustErlang(t, 3, 0.5)).
		AddInputArc(pending, 1).
		AddOutputArc(done, 1)

	rep, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Refusals) != 0 {
		t.Fatalf("unexpected refusals: %v", rep.Refusals)
	}
	if len(rep.Expanded) != 1 || !strings.Contains(rep.Expanded[0], `activity "repair"`) {
		t.Fatalf("expected one evidence entry for repair, got %v", rep.Expanded)
	}
	if !strings.Contains(rep.Expanded[0], "3 exponential phase(s)") {
		t.Fatalf("evidence must state the phase count: %q", rep.Expanded[0])
	}
	wantTouched := []string{"repair", "repair/phase1", "repair/phase2"}
	if got := rep.Touched(); len(got) != len(wantTouched) {
		t.Fatalf("touched = %v, want %v", got, wantTouched)
	} else {
		for i := range got {
			if got[i] != wantTouched[i] {
				t.Fatalf("touched = %v, want %v", got, wantTouched)
			}
		}
	}
	// Two fresh phase places, two new stage activities.
	if m.NumPlaces() != 4 {
		t.Fatalf("NumPlaces = %d, want 4", m.NumPlaces())
	}
	if m.NumActivities() != 3 {
		t.Fatalf("NumActivities = %d, want 3", m.NumActivities())
	}
	for _, name := range []string{"repair/phase1", "repair/phase2"} {
		if m.Activity(name) == nil {
			t.Fatalf("stage activity %q missing", name)
		}
		if m.Place(name) == nil {
			t.Fatalf("phase place %q missing", name)
		}
	}
	// The first stage is gate-guarded (checks, does not consume) and the
	// final stage is the original activity with the extra chain arc.
	first := m.Activity("repair/phase1")
	if len(first.inputArcs) != 0 || len(first.inputGates) != 1 {
		t.Fatalf("first stage must have no input arcs and one gate, got %d arcs, %d gates",
			len(first.inputArcs), len(first.inputGates))
	}
	final := m.Activity("repair")
	if len(final.inputArcs) != 2 {
		t.Fatalf("final stage must keep its arc and gain the chain arc, got %d arcs", len(final.inputArcs))
	}
	if _, ok := final.fixedDelay.(dist.Exponential); !ok {
		t.Fatalf("final stage delay must be exponential, got %T", final.fixedDelay)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("expanded model invalid: %v", err)
	}
	// Idempotence: everything is memoryless now, a second run is a no-op.
	rep2, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Expanded) != 0 || len(rep2.Refusals) != 0 {
		t.Fatalf("second pass must be a no-op, got %v / %v", rep2.Expanded, rep2.Refusals)
	}
}

// TestExpandPhasesSingleStageSwap pins the k == 1 special case: a shape-1
// Gamma is the exponential, so the delay is swapped in place with no new
// places or activities and no structural preconditions.
func TestExpandPhasesSingleStageSwap(t *testing.T) {
	g, err := dist.NewGamma(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel("expand-swap")
	p := m.AddPlace("p", 1)
	q := m.AddPlace("q", 0)
	// Even structurally hostile contexts (another consumer of p) are fine:
	// the swap does not build a chain.
	m.AddTimedActivity("swap", g).AddInputArc(p, 1).AddOutputArc(q, 1)
	m.AddTimedActivity("rival", mustExpRate(t, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)

	rep, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expanded) != 1 || len(rep.Refusals) != 0 {
		t.Fatalf("expected exactly one expansion, got %v / %v", rep.Expanded, rep.Refusals)
	}
	if m.NumPlaces() != 2 || m.NumActivities() != 2 {
		t.Fatalf("swap must not add places or activities: %d places, %d activities",
			m.NumPlaces(), m.NumActivities())
	}
	fd, ok := m.Activity("swap").fixedDelay.(dist.Exponential)
	if !ok {
		t.Fatalf("delay not swapped to exponential: %T", m.Activity("swap").fixedDelay)
	}
	if got := fd.Rate(); got != 0.5 {
		t.Fatalf("swapped rate = %v, want 0.5 (1/scale)", got)
	}
}

// TestExpandPhasesRefusals pins the classification of every delay the pass
// must leave alone: each case gets a RefusalNonExpandable reason naming the
// distribution or the failed structural precondition, and the model keeps
// its shape.
func TestExpandPhasesRefusals(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, m *Model)
		want  string
	}{
		{
			name: "no finite phase form",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				m.AddTimedActivity("a", mustUniform(t, 1, 2)).AddInputArc(p, 1)
			},
			want: "no exact finite phase-type form",
		},
		{
			name: "marking-dependent delay",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				u := mustUniform(t, 1, 2)
				m.AddTimedActivityFunc("a", func(MarkingReader) dist.Distribution { return u }).
					AddInputArc(p, 1)
			},
			want: "marking-dependent delay is not statically expandable",
		},
		{
			name: "reactivation",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				a := m.AddTimedActivity("a", mustErlang(t, 2, 1)).AddInputArc(p, 1)
				a.SetReactivation(true)
			},
			want: "reactivation resamples",
		},
		{
			name: "input gate",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				m.AddTimedActivity("a", mustErlang(t, 2, 1)).
					AddInputGate(&InputGate{
						Name:    "g",
						Reads:   []*Place{p},
						Enabled: func(mr MarkingReader) bool { return mr.Tokens(p) > 0 },
					})
			},
			want: "input-gate enabling cannot be proven stable",
		},
		{
			name: "shared consumer",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				q := m.AddPlace("q", 0)
				m.AddTimedActivity("a", mustErlang(t, 2, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)
				m.AddTimedActivity("rival", mustExpRate(t, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)
			},
			want: `input place "p" has other consumers`,
		},
		{
			name: "gate transform writes input place",
			build: func(t *testing.T, m *Model) {
				p := m.AddPlace("p", 1)
				q := m.AddPlace("q", 1)
				r := m.AddPlace("r", 0)
				m.AddTimedActivity("a", mustErlang(t, 2, 1)).AddInputArc(p, 1).AddOutputArc(r, 1)
				m.AddTimedActivity("refill", mustExpRate(t, 1)).AddInputArc(q, 1).
					AddCase(Case{OutputGates: []*OutputGate{{
						Name:      "og",
						Transform: func(mw MarkingWriter) { mw.Add(p, 1) },
					}}})
			},
			want: `input place "p" is written by a gate transform`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel("refusal-" + tc.name)
			tc.build(t, m)
			before := m.NumActivities()
			rep, err := ExpandPhases(m)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Expanded) != 0 {
				t.Fatalf("nothing may expand, got %v", rep.Expanded)
			}
			if len(rep.Refusals) != 1 {
				t.Fatalf("expected one refusal, got %v", rep.Refusals)
			}
			r := rep.Refusals[0]
			if !strings.HasPrefix(r, RefusalNonExpandable) {
				t.Fatalf("refusal %q must carry the %q prefix", r, RefusalNonExpandable)
			}
			if !strings.Contains(r, tc.want) {
				t.Fatalf("refusal %q must mention %q", r, tc.want)
			}
			if m.NumActivities() != before {
				t.Fatalf("refused model must keep its shape: %d -> %d activities", before, m.NumActivities())
			}
		})
	}
}

// TestExpansionReportVerifyTamper pins the proof obligation: a touched
// activity whose delay is not memoryless after the pass is an
// ErrExpansionUnsound, as is a touched activity missing from the model.
func TestExpansionReportVerifyTamper(t *testing.T) {
	m := NewModel("verify-tamper")
	p := m.AddPlace("p", 1)
	q := m.AddPlace("q", 0)
	m.AddTimedActivity("a", mustErlang(t, 2, 1)).AddInputArc(p, 1).AddOutputArc(q, 1)
	rep, err := ExpandPhases(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(m); err != nil {
		t.Fatalf("fresh expansion must verify: %v", err)
	}
	m.Activity("a").fixedDelay = mustUniform(t, 1, 2)
	if err := rep.Verify(m); !errors.Is(err, ErrExpansionUnsound) {
		t.Fatalf("tampered delay must fail verification with ErrExpansionUnsound, got %v", err)
	}
	rep2 := &ExpansionReport{touched: []string{"ghost"}}
	if err := rep2.Verify(m); !errors.Is(err, ErrExpansionUnsound) {
		t.Fatalf("missing touched activity must fail verification, got %v", err)
	}
}

// TestReplicaClassExpandLumpedAcceptance pins why a replica class needs its
// phases spelled out: an Erlang class is rejected by ReplicateLumped as
// written, and its exact phase form — exponential stages through a local
// phase state, at the rates the model-level pass uses — lumps.
func TestReplicaClassExpandLumpedAcceptance(t *testing.T) {
	erlang := mustErlang(t, 2, 0.5)
	c := ReplicaClass{
		States:  []string{"up", "down"},
		Initial: "up",
		Transitions: []ReplicaTransition{
			{Name: "fail", From: "up", To: "down", Delay: mustExpRate(t, 0.01)},
			{Name: "repair", From: "down", To: "up", Delay: erlang},
		},
	}
	m := NewModel("lump-reject")
	if _, err := ReplicateLumped(m, "pool", 4, c); !errors.Is(err, ErrNonExponential) {
		t.Fatalf("unexpanded Erlang class must be rejected, got %v", err)
	}
	rates, ok := phaseRates(erlang)
	if !ok || len(rates) != 2 {
		t.Fatalf("phaseRates(Erlang(2)) = %v, %v; want two stages", rates, ok)
	}
	phase := phaseName("repair", 1)
	expanded := ReplicaClass{
		States:  []string{"up", "down", phase},
		Initial: "up",
		Transitions: []ReplicaTransition{
			c.Transitions[0],
			{Name: phase, From: "down", To: phase, Delay: mustExpRate(t, rates[0])},
			{Name: "repair", From: phase, To: "up", Delay: mustExpRate(t, rates[1])},
		},
	}
	m2 := NewModel("lump-accept")
	lp, err := ReplicateLumped(m2, "pool", 4, expanded)
	if err != nil {
		t.Fatalf("expanded class must lump: %v", err)
	}
	if lp.State(phase) == nil {
		t.Fatal("phase state must have a counting place")
	}
	if err := m2.Validate(); err != nil {
		t.Fatalf("lumped model invalid: %v", err)
	}
}
