package sweep

import (
	"runtime"
	"testing"

	"repro/internal/abe"
	"repro/internal/san"
)

// shippedConfigs returns the Figure 4 quick points (Table 5 at x1, x4 and
// x10, each with and without the spare OSS) and the three mini solver
// configurations, in that order.
func shippedConfigs() []abe.Config {
	var cfgs []abe.Config
	for _, factor := range []float64{1, 4, 10} {
		cfg := abe.ABE().ScaledBy(factor)
		cfgs = append(cfgs, cfg, cfg.WithSpareOSS(true))
	}
	return append(cfgs, abe.MiniExponential(), abe.MiniErlang(), abe.MiniWeibull())
}

// compiledConfig builds and compiles cfg's model.
func compiledConfig(t *testing.T, cfg abe.Config) *san.CompiledModel {
	t.Helper()
	m := san.NewModel(cfg.Name)
	mp, err := abe.Build(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := san.Compile(m, mp.Rewards())
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestFingerprintGoldenKeys pins the solve-cache key of every shipped
// configuration, in shippedConfigs order. A change that moves one would
// silently turn cache hits into misses (or worse, the reverse), so the
// fingerprint must stay bit-identical unless the serialization is changed
// on purpose.
func TestFingerprintGoldenKeys(t *testing.T) {
	golden := []string{
		"15298094f05370b9b47865b6014779f898dcf2f8c601bd810e006b7cc2316303", // ABE x1
		"7f0058228c80433a1f7f67b6d3926431ed54cfc12713685d80fd8f55960635a8", // ABE x1 +spare
		"53845905e9f92193ee0683ce8e6b4242139de3f7c5e2cebc6807603f363211e8", // ABE x4
		"fb12bf52a8d4ba66e2f52734a9dccc0db2521316d0a5ca7c5156fbbc2df2ea0b", // ABE x4 +spare
		"1b83390dbc18f2d68eb6671ea3ebe2181825c1d441f8b01deda4fea941510314", // ABE x10
		"68b5cf30f4a707c827ce43d9aa77a271cdcd22d725da2b208310c4eaa3a5eae5", // ABE x10 +spare
		"be414e8a097d969bf5a64cbe9468c3e2b5a41f296729c435493ca274716e155c", // MiniExponential
		"805c74e731874a0255cef95f34a3946f3fda3b50e2521c459f2d99459e273e31", // MiniErlang
		"78a20c7c1548b72235d176eb72b11717c3a87b3eca4ad0154ce73f649e4fca36", // MiniWeibull
	}
	cfgs := shippedConfigs()
	if len(cfgs) != len(golden) {
		t.Fatalf("%d configurations, %d golden keys", len(cfgs), len(golden))
	}
	for i, cfg := range cfgs {
		if got := compiledConfig(t, cfg).Fingerprint(); got != golden[i] {
			t.Errorf("%s (spare %v): fingerprint drifted\n got %s\nwant %s", cfg.Name, cfg.OSS.SpareOSS, got, golden[i])
		}
	}
}

// TestExpansionGateSound checks the expansion gate against the pass it
// stands in for, on every shipped configuration and its exponential-forms
// variant: whenever the gate finds no expandable delay, ExpandPhases on a
// fresh build must rewrite nothing. MiniErlang's Erlang repair must pass.
func TestExpansionGateSound(t *testing.T) {
	var cfgs []abe.Config
	for _, cfg := range shippedConfigs() {
		cfgs = append(cfgs, cfg, cfg.WithExponentialForms())
	}
	for _, cfg := range cfgs {
		if compiledConfig(t, cfg).HasExpandableDelay() {
			continue
		}
		m := san.NewModel(cfg.Name)
		if _, err := abe.Build(m, cfg); err != nil {
			t.Fatal(err)
		}
		rep, err := san.ExpandPhases(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Expanded) > 0 {
			t.Errorf("%s (spare %v): gate found nothing expandable, ExpandPhases expanded %v",
				cfg.Name, cfg.OSS.SpareOSS, rep.Expanded)
		}
	}
	if !compiledConfig(t, abe.MiniErlang()).HasExpandableDelay() {
		t.Error("MiniErlang's Erlang repair must pass the expansion gate")
	}
}

// TestPrepassAllocScaling guards the pre-pass against O(places × closures)
// probing: the bytes Fingerprint plus ExpandPhases allocate on the x10
// Table 5 configuration (about 10x the places of x1) must stay within 20x
// of the x1 figure. Linear scaling gives about 10x; probing that copies the
// marking per closure gives about 100x.
func TestPrepassAllocScaling(t *testing.T) {
	prepassBytes := func(cfg abe.Config) uint64 {
		cm := compiledConfig(t, cfg)
		fresh := san.NewModel(cfg.Name)
		if _, err := abe.Build(fresh, cfg); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cm.Fingerprint()
		if _, err := san.ExpandPhases(fresh); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small := prepassBytes(abe.ABE().ScaledBy(1))
	large := prepassBytes(abe.ABE().ScaledBy(10))
	t.Logf("pre-pass allocation: x1 %d B, x10 %d B (%.1fx)", small, large, float64(large)/float64(small))
	if large > 20*small {
		t.Errorf("x10 pre-pass allocates %d B, more than 20x the x1 figure %d B", large, small)
	}
}
