package san_test

import (
	"testing"

	"repro/internal/raid"
	"repro/internal/rng"
	"repro/internal/san"
)

// runAllocs returns the allocations of one steady-state Run of a flat ABE
// storage model with the given number of disks (a multiple of 240), its
// availability and replacement-count rewards attached.
func runAllocs(t *testing.T, disks int) float64 {
	t.Helper()
	cfg, err := raid.ABEStorage().ScaledToDisks(disks)
	if err != nil {
		t.Fatal(err)
	}
	model := san.NewModel("alloc-storage")
	sp, err := raid.BuildStorage(model, "storage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rewards := []san.RewardVariable{sp.AvailabilityReward("availability"), sp.ReplacementCountReward("replacements")}
	cm, err := san.Compile(model, rewards)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cm.NewSimulator(rng.NewStream(1, "alloc"))
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sim.Run(8760); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs
}

// TestRunReusesRunState pins that a Simulator resets its run state in place:
// once the first Run has sized the marking, event queue and accumulators,
// later runs allocate only their Result, a constant independent of the
// model's size.
func TestRunReusesRunState(t *testing.T) {
	const maxAllocs = 4
	small := runAllocs(t, 240)
	large := runAllocs(t, 960)
	if small > maxAllocs || large > maxAllocs {
		t.Errorf("a reused Run allocates %v times on 240 disks and %v on 960, want at most %d", small, large, maxAllocs)
	}
	if small != large {
		t.Errorf("allocations grow with the model: %v on 240 disks, %v on 960", small, large)
	}
}
