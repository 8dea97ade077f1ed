package san

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// denseMarking is the straightforward probe marking: a full copy of the
// base plus n-length read and write bitmaps per probe. It is the oracle the
// tests below hold the sparse probes to.
type denseMarking struct {
	tokens []int
	clamp  bool
	reads  []bool
	writes []bool
}

func newDenseMarking(base []int, clamp bool) *denseMarking {
	n := len(base)
	return &denseMarking{tokens: append([]int(nil), base...), clamp: clamp, reads: make([]bool, n), writes: make([]bool, n)}
}

func (dm *denseMarking) ok(p *Place) bool {
	return p != nil && p.index >= 0 && p.index < len(dm.tokens)
}

func (dm *denseMarking) Tokens(p *Place) int {
	if !dm.ok(p) {
		return 0
	}
	dm.reads[p.index] = true
	return dm.tokens[p.index]
}

func (dm *denseMarking) SetTokens(p *Place, n int) {
	if dm.ok(p) {
		dm.writes[p.index] = true
		dm.tokens[p.index] = n
	}
}

func (dm *denseMarking) Add(p *Place, delta int) {
	if !dm.ok(p) {
		return
	}
	dm.writes[p.index] = true
	dm.tokens[p.index] += delta
	if dm.clamp && dm.tokens[p.index] < 0 {
		dm.tokens[p.index] = 0
	}
}

// denseTransformHash is the dense fingerprint of a gate transform: every
// base, then +1 and +3 bumps of the initial marking on each read place,
// scanning all n places in index order while reads discovered along the way
// extend the scan, hashing the written places in index order with their
// final counts after each probe.
func denseTransformHash(bases [][]int, initial []int, fn GateFunc) string {
	w := &fpWriter{h: sha256.New()}
	n := len(initial)
	reads := make([]bool, n)
	evalAt := func(tokens []int) {
		dm := newDenseMarking(tokens, false)
		panicked := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			fn(dm)
			for i, written := range dm.writes {
				if written {
					w.num(i)
					w.num(dm.tokens[i])
				}
			}
			return false
		}()
		if panicked {
			w.str("panic")
		} else {
			w.str("|")
		}
		for i, r := range dm.reads {
			reads[i] = reads[i] || r
		}
	}
	for _, base := range bases {
		evalAt(base)
	}
	for pi := 0; pi < n; pi++ {
		if !reads[pi] {
			continue
		}
		for _, bump := range []int{1, 3} {
			tokens := append([]int(nil), initial...)
			tokens[pi] += bump
			evalAt(tokens)
		}
	}
	return hex.EncodeToString(w.h.Sum(nil))
}

// sparseTransformHash fingerprints the same transform through the
// production probes.
func sparseTransformHash(probes *fpProbes, fn GateFunc) string {
	w := &fpWriter{h: sha256.New()}
	w.probeTransform(probes, fn)
	return hex.EncodeToString(w.h.Sum(nil))
}

// probeFixture returns places p0..p5 with initial marking [2 0 1 0 0 3].
func probeFixture() (*Model, []*Place) {
	m := NewModel("probe")
	var ps []*Place
	for i, n := range []int{2, 0, 1, 0, 0, 3} {
		ps = append(ps, m.AddPlace(fmt.Sprintf("p%d", i), n))
	}
	return m, ps
}

// TestSparseProbesMatchDense holds the sparse fingerprint probes to the
// dense ones hash for hash, on closures that exercise every
// branch of the probe loop: reads found only under a bump (after and before
// the bumped place), read-after-write through the overlay, clamped and
// unclamped decrements, out-of-model places, and panics.
func TestSparseProbesMatchDense(t *testing.T) {
	m, p := probeFixture()
	foreign := NewModel("other").AddPlace("x", 0)
	initial := m.InitialMarking()
	closures := map[string]GateFunc{
		"late read after the bumped place": func(mw MarkingWriter) {
			if mw.Tokens(p[0]) == 3 {
				mw.SetTokens(p[4], mw.Tokens(p[4])+mw.Tokens(p[5]))
			}
		},
		"late read before the bumped place": func(mw MarkingWriter) {
			if mw.Tokens(p[3]) == 3 {
				mw.Add(p[1], mw.Tokens(p[1])+7)
			}
		},
		"read after write": func(mw MarkingWriter) {
			mw.Add(p[2], -2)
			mw.SetTokens(p[1], mw.Tokens(p[2])*10)
		},
		"writes out of index order": func(mw MarkingWriter) {
			mw.SetTokens(p[5], 0)
			mw.Add(p[0], mw.Tokens(p[5]))
			mw.Add(p[3], 1)
		},
		"foreign place": func(mw MarkingWriter) { mw.SetTokens(foreign, mw.Tokens(foreign)+1) },
		"panic under a bump": func(mw MarkingWriter) {
			mw.Add(p[1], 1)
			if mw.Tokens(p[2]) > 2 {
				panic("boom")
			}
		},
	}
	probes := fingerprintProbes(initial)
	for _, name := range sortedKeys(closures) {
		fn := closures[name]
		want := denseTransformHash(baseMarkings(initial), initial, fn)
		if got := sparseTransformHash(probes, fn); got != want {
			t.Errorf("%s: sparse probes hash %s, dense probes %s", name, got, want)
		}
	}
}

// TestProbeSetMatchesDense holds probeSet's aggregated read and write sets
// to the dense marking's, with and without clamping, and checks a panicking
// closure marks the set opaque.
func TestProbeSetMatchesDense(t *testing.T) {
	m, p := probeFixture()
	initial := m.InitialMarking()
	bases := baseMarkings(initial)
	fns := []GateFunc{
		func(mw MarkingWriter) {
			mw.Add(p[0], -1)
			if mw.Tokens(p[0]) == 0 {
				mw.SetTokens(p[4], mw.Tokens(p[5]))
			}
		},
		func(mw MarkingWriter) { mw.Add(p[2], mw.Tokens(p[3])) },
	}
	ps := newProbeSet(len(initial))
	reads, writes := make([]bool, len(initial)), make([]bool, len(initial))
	for _, fn := range fns {
		ps.probe(bases, func(pm *probeMarking) { fn(pm) })
		for _, base := range bases {
			for _, clamp := range []bool{false, true} {
				dm := newDenseMarking(base, clamp)
				fn(dm)
				for i := range reads {
					reads[i] = reads[i] || dm.reads[i]
					writes[i] = writes[i] || dm.writes[i]
				}
			}
		}
	}
	if ps.opaque || !reflect.DeepEqual(ps.reads, reads) || !reflect.DeepEqual(ps.writes, writes) {
		t.Errorf("probe set reads %v writes %v opaque %v, dense reads %v writes %v", ps.reads, ps.writes, ps.opaque, reads, writes)
	}
	ps.probe(bases, func(pm *probeMarking) { panic("opaque") })
	if !ps.opaque {
		t.Error("a panicking closure did not mark the probe set opaque")
	}
}
