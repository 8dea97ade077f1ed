package calibrate

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/abe"
	"repro/internal/loggen"
)

func TestCalibrateFromABELogs(t *testing.T) {
	cfg := loggen.ABEConfig()
	logs, err := loggen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(logs, cfg.Disks)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Config.Validate(); err != nil {
		t.Fatalf("calibrated config invalid: %v", err)
	}
	if !strings.Contains(cal.Config.Name, "log-calibrated") {
		t.Errorf("calibrated config name %q should mark its origin", cal.Config.Name)
	}

	// The calibrated fields must come from the derived rates, not the base.
	if cal.Config.Storage.Disk.ShapeBeta != cal.Rates.DiskWeibullShape {
		t.Errorf("disk shape %v != derived %v", cal.Config.Storage.Disk.ShapeBeta, cal.Rates.DiskWeibullShape)
	}
	if cal.Config.Storage.Disk.MTBFHours != cal.Rates.DiskMTBFHours {
		t.Errorf("disk MTBF %v != derived %v", cal.Config.Storage.Disk.MTBFHours, cal.Rates.DiskMTBFHours)
	}
	if cal.Config.Workload.JobsPerHour != cal.Rates.JobsPerHour {
		t.Errorf("job rate %v != derived %v", cal.Config.Workload.JobsPerHour, cal.Rates.JobsPerHour)
	}
	if got, want := cal.Config.Infrastructure.FabricMTBFHours, 720/cal.Rates.OutagesPerMonth; math.Abs(got-want) > 1e-9 {
		t.Errorf("fabric MTBF %v != 720/outage rate %v", got, want)
	}
	lo, hi := cal.Config.Infrastructure.FabricRepairLoHours, cal.Config.Infrastructure.FabricRepairHiHours
	if !(lo > 0) || hi < lo {
		t.Errorf("fabric repair range [%v, %v] invalid", lo, hi)
	}
	if got := (lo + hi) / 2; math.Abs(got-cal.Rates.MeanOutageHours) > 1e-9 {
		t.Errorf("Uniform fabric repair mean %v != empirical mean outage %v", got, cal.Rates.MeanOutageHours)
	}

	// Fitted distributions round numbers through exactly.
	if got := cal.DiskLifetime.Mean(); math.Abs(got-cal.Rates.DiskMTBFHours) > 1e-6*cal.Rates.DiskMTBFHours {
		t.Errorf("disk lifetime mean %v != fitted MTBF %v", got, cal.Rates.DiskMTBFHours)
	}
	if cal.DiskLifetime.Shape() != cal.Rates.DiskWeibullShape {
		t.Errorf("disk lifetime shape %v != fitted %v", cal.DiskLifetime.Shape(), cal.Rates.DiskWeibullShape)
	}
	if cal.OutageDuration.N() != len(cal.Outages.Outages) {
		t.Errorf("outage duration sample n=%d, want %d", cal.OutageDuration.N(), len(cal.Outages.Outages))
	}
	// The synthetic generator replaces disks 4 h after each failure, so the
	// observed repair lags must recover that constant.
	if !cal.HasDiskRepair {
		t.Fatal("ABE logs contain replacements; repair distribution missing")
	}
	if got := cal.DiskRepair.Mean(); math.Abs(got-4) > 0.5 {
		t.Errorf("mean observed disk repair lag %v h, want ~4 (generator constant)", got)
	}
	if got := cal.Config.Storage.Disk.ReplaceHours; math.Abs(got-4) > 0.5 {
		t.Errorf("calibrated replace hours %v, want ~4", got)
	}

	// Provenance: every entry has a source, and the core parameters are
	// present with the values applied to the config.
	if len(cal.Provenance) < 10 {
		t.Fatalf("provenance has %d entries, want the full parameter set", len(cal.Provenance))
	}
	byName := map[string]Parameter{}
	for _, p := range cal.Provenance {
		if p.Source == "" {
			t.Errorf("parameter %q missing source", p.Name)
		}
		byName[p.Name] = p
	}
	for name, want := range map[string]float64{
		"disk_weibull_shape":        cal.Config.Storage.Disk.ShapeBeta,
		"disk_mtbf_hours":           cal.Config.Storage.Disk.MTBFHours,
		"jobs_per_hour":             cal.Config.Workload.JobsPerHour,
		"fabric_mtbf_hours":         cal.Config.Infrastructure.FabricMTBFHours,
		"transient_events_per_hour": cal.Config.Workload.TransientEventsPerHour,
	} {
		p, ok := byName[name]
		if !ok {
			t.Errorf("provenance missing %q", name)
			continue
		}
		if p.Value != want {
			t.Errorf("provenance %q = %v, config holds %v", name, p.Value, want)
		}
	}
	if byName["disk_weibull_shape"].Source != SourceSurvival || byName["jobs_per_hour"].Source != SourceJobs ||
		byName["fabric_mtbf_hours"].Source != SourceOutages {
		t.Errorf("provenance sources misattributed: %+v", byName)
	}

	// Rendering and serialization.
	if out := cal.Table().Render(); !strings.Contains(out, "disk_weibull_shape") || !strings.Contains(out, SourceSurvival) {
		t.Errorf("provenance table missing entries:\n%s", out)
	}
	rep := cal.Report()
	if rep.Population != cfg.Disks || len(rep.Parameters) != len(cal.Provenance) {
		t.Errorf("report %+v inconsistent with calibration", rep)
	}
	if rep.DiskLifetime.Name != "weibull" || rep.OutageDuration.Name != "empirical" || rep.DiskRepair == nil {
		t.Errorf("report distributions: %+v", rep)
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	logs, err := loggen.Generate(loggen.ABEConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Calibrate(logs, 480)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(logs, 480)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Provenance, b.Provenance) {
		t.Error("calibration provenance not deterministic")
	}
	if !reflect.DeepEqual(a.Config, b.Config) {
		t.Error("calibrated config not deterministic")
	}
}

// TestCalibrateWithoutTransientFailures pins the unidentifiable-parameter
// behavior: a log with no transient job failures cannot identify the
// transient event rate, so the base value stands (overriding with 0 would
// fail abe.Config validation) and no provenance entry is recorded.
func TestCalibrateWithoutTransientFailures(t *testing.T) {
	day := func(d, h int) time.Time { return time.Date(2007, 7, d, h, 0, 0, 0, time.UTC) }
	san := []loggen.Event{
		{Time: day(1, 0), Source: "san", Node: "lustre-cfs", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseIOHardware}},
		{Time: day(1, 6), Source: "san", Node: "lustre-cfs", Kind: loggen.OutageEnd},
		{Time: day(3, 0), Source: "san", Node: "d1", Kind: loggen.DiskFailed, Attrs: map[string]string{"age_hours": "500"}},
		{Time: day(3, 4), Source: "san", Node: "d1", Kind: loggen.DiskReplaced},
		{Time: day(20, 0), Source: "san", Node: "lustre-cfs", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseNetwork}},
		{Time: day(20, 2), Source: "san", Node: "lustre-cfs", Kind: loggen.OutageEnd},
	}
	compute := []loggen.Event{
		{Time: day(1, 0), Node: "c1", Kind: loggen.JobSubmit, Attrs: map[string]string{"job": "1"}},
		{Time: day(1, 5), Node: "c1", Kind: loggen.JobEnd, Attrs: map[string]string{"job": "1", "status": loggen.JobOK}},
		{Time: day(10, 0), Node: "c2", Kind: loggen.JobSubmit, Attrs: map[string]string{"job": "2"}},
		{Time: day(10, 5), Node: "c2", Kind: loggen.JobEnd, Attrs: map[string]string{"job": "2", "status": loggen.JobFailedFileSystem}},
		{Time: day(19, 0), Node: "c3", Kind: loggen.JobSubmit, Attrs: map[string]string{"job": "3"}},
		{Time: day(19, 5), Node: "c3", Kind: loggen.JobEnd, Attrs: map[string]string{"job": "3", "status": loggen.JobOK}},
	}
	base := abe.ABE()
	cal, err := CalibrateWith(&loggen.Logs{SAN: san, Compute: compute}, 10, base)
	if err != nil {
		t.Fatalf("calibration without transient failures failed: %v", err)
	}
	if got := cal.Config.Workload.TransientEventsPerHour; got != base.Workload.TransientEventsPerHour {
		t.Errorf("transient event rate %v, want base %v (not identifiable from this log)", got, base.Workload.TransientEventsPerHour)
	}
	for _, p := range cal.Provenance {
		if p.Name == "transient_events_per_hour" {
			t.Errorf("unidentifiable parameter recorded as derived: %+v", p)
		}
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(nil, 480); err == nil {
		t.Error("nil logs accepted")
	}
	logs, err := loggen.Generate(loggen.ABEConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Calibrate(logs, 0); err == nil {
		t.Error("zero population accepted")
	}
	bad := abe.Config{}
	if _, err := CalibrateWith(logs, 480, bad); err == nil {
		t.Error("invalid base configuration accepted")
	}
	// A population below the number of distinct failed disks must surface the
	// loganalysis under-censoring error, not silently calibrate.
	if _, err := Calibrate(logs, 1); err == nil {
		t.Error("impossible disk population accepted")
	}
}

// denseLogConfig is a log-generator configuration with enough failure events
// for the round trip to have statistical power: a longer SAN window and a
// much higher disk failure rate than ABE's 300,000 h MTBF (which yields only
// a handful of failures in 87 days, far too few to re-identify the Weibull).
func denseLogConfig() loggen.Config {
	cfg := loggen.ABEConfig()
	cfg.Seed = 1
	cfg.SANDays = 180
	cfg.DiskMTBFHours = 40000
	cfg.DiskShape = 0.7
	cfg.OutagesPerMonth = 6
	return cfg
}

// TestCalibrationRoundTrip closes the loop: logs -> calibrate -> regenerate
// logs under the calibrated parameters -> re-derive rates, which must match
// the calibration inputs within statistical tolerance.
func TestCalibrationRoundTrip(t *testing.T) {
	base := denseLogConfig()
	logs, err := loggen.Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(logs, base.Disks)
	if err != nil {
		t.Fatal(err)
	}

	regenCfg := cal.LogConfig(base)
	if err := regenCfg.Validate(); err != nil {
		t.Fatalf("round-trip generator config invalid: %v", err)
	}
	regen, err := loggen.Generate(regenCfg)
	if err != nil {
		t.Fatal(err)
	}
	recal, err := Calibrate(regen, base.Disks)
	if err != nil {
		t.Fatal(err)
	}

	in, out := cal.Rates, recal.Rates
	relErr := func(a, b float64) float64 {
		if a == 0 {
			return math.Abs(b)
		}
		return math.Abs(b-a) / math.Abs(a)
	}
	// Absolute tolerance for the availability (a number near 1).
	if math.Abs(out.CFSAvailability-in.CFSAvailability) > 0.02 {
		t.Errorf("availability drifted: %v -> %v", in.CFSAvailability, out.CFSAvailability)
	}
	// Relative tolerances sized to the sampling noise of each estimate.
	for _, c := range []struct {
		name    string
		in, out float64
		tol     float64
	}{
		{"jobs_per_hour", in.JobsPerHour, out.JobsPerHour, 0.05},
		{"transient_job_failure_fraction", in.TransientJobFailureFraction, out.TransientJobFailureFraction, 0.20},
		{"other_job_failure_fraction", in.OtherJobFailureFraction, out.OtherJobFailureFraction, 0.50},
		{"outages_per_month", in.OutagesPerMonth, out.OutagesPerMonth, 0.35},
		{"mean_outage_hours", in.MeanOutageHours, out.MeanOutageHours, 0.40},
		{"disk_mtbf_hours", in.DiskMTBFHours, out.DiskMTBFHours, 0.60},
		{"disk_replacements_per_week", in.DiskReplacementsPerWeek, out.DiskReplacementsPerWeek, 0.35},
	} {
		if got := relErr(c.in, c.out); got > c.tol {
			t.Errorf("%s drifted %.0f%% (> %.0f%%): %v -> %v", c.name, got*100, c.tol*100, c.in, c.out)
		}
	}
	// The Weibull shape is the noisiest estimate; require the re-fit to stay
	// in the infant-mortality regime near the input.
	if math.Abs(out.DiskWeibullShape-in.DiskWeibullShape) > 0.25 {
		t.Errorf("disk shape drifted: %v -> %v", in.DiskWeibullShape, out.DiskWeibullShape)
	}
}

// TestCalibrateWithoutMountFailures pins the explicit handling of a failed
// mount-failure analysis: mount failures only feed the synthetic-log round
// trip, so compute logs without them (or an analysis error) must leave
// Mounts empty without aborting the calibration.
func TestCalibrateWithoutMountFailures(t *testing.T) {
	cfg := loggen.ABEConfig()
	logs, err := loggen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := logs.Compute[:0:0]
	for _, e := range logs.Compute {
		if e.Kind != loggen.MountFailure {
			kept = append(kept, e)
		}
	}
	logs.Compute = kept
	cal, err := Calibrate(logs, cfg.Disks)
	if err != nil {
		t.Fatalf("calibration must survive missing mount-failure events: %v", err)
	}
	if len(cal.Mounts) != 0 {
		t.Fatalf("expected no mount-failure days, got %d", len(cal.Mounts))
	}
}

// TestCalibrateRefusesLogWithoutOutages: outage analysis accepts a SAN log
// without outages, but calibration cannot identify the fabric MTBF from it
// and must say so instead of producing a configuration.
func TestCalibrateRefusesLogWithoutOutages(t *testing.T) {
	cfg := loggen.ABEConfig()
	logs, err := loggen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := logs.SAN[:0:0]
	for _, e := range logs.SAN {
		if e.Kind != loggen.OutageStart && e.Kind != loggen.OutageEnd {
			kept = append(kept, e)
		}
	}
	if len(kept) == len(logs.SAN) {
		t.Fatal("generated SAN log has no outages to remove")
	}
	logs.SAN = kept
	cal, err := Calibrate(logs, cfg.Disks)
	if !errors.Is(err, ErrNoOutages) {
		t.Fatalf("calibration of a log without outages = %v, %v; want ErrNoOutages", cal, err)
	}
	if !strings.Contains(err.Error(), "fabric MTBF") {
		t.Errorf("refusal %q must name the unidentifiable fabric MTBF", err)
	}
}
