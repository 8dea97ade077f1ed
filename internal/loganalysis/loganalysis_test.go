package loganalysis

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/loggen"
)

func ts(day, hour int) time.Time {
	return time.Date(2007, 7, day, hour, 0, 0, 0, time.UTC)
}

func TestParse(t *testing.T) {
	log := `2007-07-21T23:03:00Z san lustre-cfs OUTAGE_START cause="I/O hardware"
2007-07-22T12:00:00Z san lustre-cfs OUTAGE_END cause="I/O hardware"`
	events, err := Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Kind != loggen.OutageStart {
		t.Fatalf("parsed %d events: %+v", len(events), events)
	}
}

func TestAnalyzeOutagesTable1Style(t *testing.T) {
	// Recreate the first rows of Table 1: an outage of 12.95 h and one of
	// 18.2 h, plus a short file-system outage, inside a bounded window.
	events := []loggen.Event{
		{Time: ts(1, 0), Source: "san", Node: "lustre-cfs", Kind: loggen.DiskReplaced},
		{Time: ts(21, 23), Source: "san", Node: "lustre-cfs", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseIOHardware}},
		{Time: ts(22, 12), Source: "san", Node: "lustre-cfs", Kind: loggen.OutageEnd, Attrs: map[string]string{"cause": loggen.CauseIOHardware}},
		{Time: ts(25, 1), Source: "san", Node: "lustre-cfs", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseFileSystem}},
		{Time: ts(25, 3), Source: "san", Node: "lustre-cfs", Kind: loggen.OutageEnd, Attrs: map[string]string{"cause": loggen.CauseFileSystem}},
		{Time: ts(31, 0), Source: "san", Node: "lustre-cfs", Kind: loggen.DiskReplaced},
	}
	report, err := AnalyzeOutages(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outages) != 2 {
		t.Fatalf("outages = %d, want 2", len(report.Outages))
	}
	if got := report.Outages[0].Hours(); math.Abs(got-13) > 1e-9 {
		t.Errorf("first outage = %v h, want 13", got)
	}
	if math.Abs(report.DowntimeHours-15) > 1e-9 {
		t.Errorf("downtime = %v, want 15", report.DowntimeHours)
	}
	window := ts(31, 0).Sub(ts(1, 0)).Hours()
	wantAvail := 1 - 15/window
	if math.Abs(report.Availability-wantAvail) > 1e-9 {
		t.Errorf("availability = %v, want %v", report.Availability, wantAvail)
	}
	if report.DowntimeByCause[loggen.CauseIOHardware] != 13 || report.DowntimeByCause[loggen.CauseFileSystem] != 2 {
		t.Errorf("downtime by cause = %+v", report.DowntimeByCause)
	}
}

func TestAnalyzeOutagesCoalescesOverlapsAndOpenEnds(t *testing.T) {
	events := []loggen.Event{
		{Time: ts(1, 0), Source: "san", Node: "fabric", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseNetwork}},
		// Second start for a different component while the first is ongoing.
		{Time: ts(1, 2), Source: "san", Node: "ddn1", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseIOHardware}},
		{Time: ts(1, 4), Source: "san", Node: "fabric", Kind: loggen.OutageEnd},
		{Time: ts(1, 6), Source: "san", Node: "ddn1", Kind: loggen.OutageEnd},
		// An outage that never ends before the window closes.
		{Time: ts(2, 0), Source: "san", Node: "ddn2", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseIOHardware}},
		{Time: ts(2, 12), Source: "san", Node: "other", Kind: loggen.DiskReplaced},
	}
	report, err := AnalyzeOutages(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outages) != 3 {
		t.Fatalf("outages = %d, want 3", len(report.Outages))
	}
	// Coalesced downtime: 00:00-06:00 (overlap merged) + 00:00-12:00 on day 2.
	if math.Abs(report.DowntimeHours-18) > 1e-9 {
		t.Errorf("coalesced downtime = %v, want 18", report.DowntimeHours)
	}
}

func TestMeanOutageHoursWithOverlappingOutages(t *testing.T) {
	// Two 4-hour outages overlapping by 2 hours: coalesced downtime is 6 h,
	// but each outage lasted 4 h, so the mean outage duration is 4 h. The old
	// coalesced/count derivation reported 3 h.
	events := []loggen.Event{
		{Time: ts(1, 0), Source: "san", Node: "fabric", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseNetwork}},
		{Time: ts(1, 2), Source: "san", Node: "ddn1", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseIOHardware}},
		{Time: ts(1, 4), Source: "san", Node: "fabric", Kind: loggen.OutageEnd},
		{Time: ts(1, 6), Source: "san", Node: "ddn1", Kind: loggen.OutageEnd},
		{Time: ts(2, 0), Source: "san", Node: "other", Kind: loggen.DiskReplaced},
	}
	report, err := AnalyzeOutages(events)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(report.DowntimeHours-6) > 1e-9 {
		t.Errorf("coalesced downtime = %v, want 6", report.DowntimeHours)
	}
	if math.Abs(report.RawOutageHours-8) > 1e-9 {
		t.Errorf("raw outage hours = %v, want 8", report.RawOutageHours)
	}
	if got := report.MeanOutageHours(); math.Abs(got-4) > 1e-9 {
		t.Errorf("mean outage duration = %v, want 4 (raw), not 3 (coalesced/count)", got)
	}
	// DowntimeByCause attributes raw per-outage hours: the per-cause sum
	// equals RawOutageHours and may exceed the coalesced DowntimeHours — the
	// documented invariant for overlapping mixed-cause outages.
	var byCause float64
	for _, h := range report.DowntimeByCause {
		byCause += h
	}
	if math.Abs(byCause-report.RawOutageHours) > 1e-9 {
		t.Errorf("sum of DowntimeByCause = %v, want RawOutageHours %v", byCause, report.RawOutageHours)
	}
	if report.DowntimeByCause[loggen.CauseNetwork] != 4 || report.DowntimeByCause[loggen.CauseIOHardware] != 4 {
		t.Errorf("per-cause hours = %+v, want 4 h each", report.DowntimeByCause)
	}
	if !(byCause > report.DowntimeHours) {
		t.Errorf("overlapping mixed-cause outages should make per-cause sum %v exceed coalesced %v", byCause, report.DowntimeHours)
	}
	durations := report.OutageDurations()
	if len(durations) != 2 || math.Abs(durations[0]-4) > 1e-9 || math.Abs(durations[1]-4) > 1e-9 {
		t.Errorf("outage durations = %v, want [4 4]", durations)
	}
	if (OutageReport{}).MeanOutageHours() != 0 {
		t.Error("empty report should have zero mean outage duration")
	}
}

func TestDeriveRatesMeanOutageHoursUsesRawDurations(t *testing.T) {
	san := []loggen.Event{
		{Time: ts(1, 0), Source: "san", Node: "fabric", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseNetwork}},
		{Time: ts(1, 2), Source: "san", Node: "ddn1", Kind: loggen.OutageStart, Attrs: map[string]string{"cause": loggen.CauseIOHardware}},
		{Time: ts(1, 4), Source: "san", Node: "fabric", Kind: loggen.OutageEnd},
		{Time: ts(1, 6), Source: "san", Node: "ddn1", Kind: loggen.OutageEnd},
		{Time: ts(3, 0), Source: "san", Node: "d1", Kind: loggen.DiskFailed, Attrs: map[string]string{"age_hours": "500"}},
		{Time: ts(10, 0), Source: "san", Node: "end", Kind: loggen.DiskReplaced},
	}
	compute := []loggen.Event{
		{Time: ts(1, 0), Node: "c0001", Kind: loggen.JobSubmit, Attrs: map[string]string{"job": "1"}},
		{Time: ts(1, 5), Node: "c0001", Kind: loggen.JobEnd, Attrs: map[string]string{"job": "1", "status": loggen.JobOK}},
		{Time: ts(9, 0), Node: "c0002", Kind: loggen.JobSubmit, Attrs: map[string]string{"job": "2"}},
		{Time: ts(9, 5), Node: "c0002", Kind: loggen.JobEnd, Attrs: map[string]string{"job": "2", "status": loggen.JobOK}},
	}
	rates, err := DeriveRates(&loggen.Logs{SAN: san, Compute: compute}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates.MeanOutageHours-4) > 1e-9 {
		t.Errorf("derived mean outage duration = %v, want 4 (raw per-outage mean)", rates.MeanOutageHours)
	}
}

func TestAnalyzeOutagesErrors(t *testing.T) {
	if _, err := AnalyzeOutages(nil); err != ErrEmptyLog {
		t.Errorf("empty log error = %v", err)
	}
	oneInstant := []loggen.Event{{Time: ts(1, 0), Kind: loggen.DiskReplaced, Node: "d"}}
	if _, err := AnalyzeOutages(oneInstant); err == nil {
		t.Error("log with a zero-length window accepted")
	}
}

// TestAnalyzeOutagesWithoutOutages: a SAN log with no outage records is a
// valid observation — no outages, no downtime, availability 1 over the event
// window — and the derived rates follow.
func TestAnalyzeOutagesWithoutOutages(t *testing.T) {
	events := []loggen.Event{
		{Time: ts(1, 0), Source: "san", Node: "d1", Kind: loggen.DiskFailed, Attrs: map[string]string{"age_hours": "500"}},
		{Time: ts(11, 0), Source: "san", Node: "d1", Kind: loggen.DiskReplaced},
	}
	report, err := AnalyzeOutages(events)
	if err != nil {
		t.Fatalf("log without outages refused: %v", err)
	}
	if len(report.Outages) != 0 || report.DowntimeHours != 0 || report.RawOutageHours != 0 {
		t.Errorf("report = %+v, want no outages and no downtime", report)
	}
	if report.Availability != 1 {
		t.Errorf("availability = %v, want 1", report.Availability)
	}
	if !report.WindowStart.Equal(ts(1, 0)) || !report.WindowEnd.Equal(ts(11, 0)) {
		t.Errorf("window = %v..%v, want the event window", report.WindowStart, report.WindowEnd)
	}
	if report.MeanOutageHours() != 0 || len(report.OutageDurations()) != 0 {
		t.Errorf("mean %v, durations %v; want 0 and none", report.MeanOutageHours(), report.OutageDurations())
	}
	rates := DeriveRatesFromReports(report, JobStats{TotalJobs: 1}, DiskReport{})
	if rates.OutagesPerMonth != 0 || rates.CFSAvailability != 1 {
		t.Errorf("derived outage rates = %+v, want 0 outages/month and availability 1", rates)
	}
}

func TestAnalyzeMountFailures(t *testing.T) {
	events := []loggen.Event{
		{Time: ts(3, 10), Node: "c0001", Kind: loggen.MountFailure},
		{Time: ts(3, 10).Add(5 * time.Minute), Node: "c0001", Kind: loggen.MountFailure}, // duplicate, same node same day
		{Time: ts(3, 11), Node: "c0002", Kind: loggen.MountFailure},
		{Time: ts(19, 2), Node: "c0500", Kind: loggen.MountFailure},
		{Time: ts(19, 3), Node: "c0501", Kind: loggen.MountFailure},
		{Time: ts(19, 4), Node: "c0502", Kind: loggen.MountFailure},
		{Time: ts(20, 0), Node: "c0001", Kind: loggen.JobSubmit, Attrs: map[string]string{"job": "1"}},
	}
	days, err := AnalyzeMountFailures(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 2 {
		t.Fatalf("days = %d, want 2", len(days))
	}
	if days[0].Nodes != 2 {
		t.Errorf("day 1 nodes = %d, want 2 (duplicate filtered)", days[0].Nodes)
	}
	if days[1].Nodes != 3 {
		t.Errorf("day 2 nodes = %d, want 3", days[1].Nodes)
	}
	if _, err := AnalyzeMountFailures(nil); err != ErrEmptyLog {
		t.Error("empty log accepted")
	}
}

func TestAnalyzeJobsTable3Style(t *testing.T) {
	var events []loggen.Event
	addJob := func(day int, id string, status string) {
		events = append(events,
			loggen.Event{Time: ts(day, 1), Node: "c0001", Kind: loggen.JobSubmit, Attrs: map[string]string{"job": id}},
			loggen.Event{Time: ts(day, 5), Node: "c0001", Kind: loggen.JobEnd, Attrs: map[string]string{"job": id, "status": status}},
		)
	}
	for i := 0; i < 40; i++ {
		addJob(1+i%20, "ok", loggen.JobOK)
	}
	for i := 0; i < 10; i++ {
		addJob(1+i%20, "t", loggen.JobFailedTransient)
	}
	addJob(5, "f1", loggen.JobFailedFileSystem)
	addJob(6, "f2", loggen.JobFailedFileSystem)

	stats, err := AnalyzeJobs(events)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalJobs != 52 {
		t.Errorf("total jobs = %d, want 52", stats.TotalJobs)
	}
	if stats.TransientFailures != 10 || stats.OtherFailures != 2 {
		t.Errorf("failures = %d/%d, want 10/2", stats.TransientFailures, stats.OtherFailures)
	}
	if got := stats.FailureRatio(); math.Abs(got-5) > 1e-9 {
		t.Errorf("failure ratio = %v, want 5 (the paper's transient:other ratio)", got)
	}
	if got := stats.ClusterUtility(); math.Abs(got-(1-12.0/52.0)) > 1e-9 {
		t.Errorf("CU = %v", got)
	}
	if stats.JobFailureFraction() <= 0 {
		t.Error("failure fraction should be positive")
	}
	if _, err := AnalyzeJobs(nil); err != ErrEmptyLog {
		t.Error("empty log accepted")
	}
	if _, err := AnalyzeJobs([]loggen.Event{{Time: ts(1, 0), Kind: loggen.MountFailure}}); err == nil {
		t.Error("log without jobs accepted")
	}
	zero := JobStats{}
	if zero.FailureRatio() != 0 || zero.JobFailureFraction() != 0 {
		t.Error("zero-value stats should not divide by zero")
	}
}

func TestFailureRatioDistinguishesNoOtherFromNoTransient(t *testing.T) {
	// Transient failures with no other failures: the ratio is unbounded, not
	// zero — returning 0 here made "no other failures" indistinguishable from
	// "no transient failures".
	onlyTransient := JobStats{TotalJobs: 100, TransientFailures: 7}
	if got := onlyTransient.FailureRatio(); !math.IsInf(got, 1) {
		t.Errorf("FailureRatio with 7 transient / 0 other = %v, want +Inf", got)
	}
	onlyOther := JobStats{TotalJobs: 100, OtherFailures: 7}
	if got := onlyOther.FailureRatio(); got != 0 {
		t.Errorf("FailureRatio with 0 transient / 7 other = %v, want 0", got)
	}
	noFailures := JobStats{TotalJobs: 100}
	if got := noFailures.FailureRatio(); got != 0 {
		t.Errorf("FailureRatio with no failures = %v, want 0", got)
	}
}

func TestAnalyzeDisks(t *testing.T) {
	events := []loggen.Event{
		{Time: ts(1, 0), Node: "window-open", Kind: loggen.JobSubmit},
		{Time: ts(5, 1), Node: "ddn0-tier1-disk2", Kind: loggen.DiskFailed, Attrs: map[string]string{"age_hours": "1200"}},
		{Time: ts(5, 5), Node: "ddn0-tier1-disk2", Kind: loggen.DiskReplaced},
		{Time: ts(5, 9), Node: "ddn0-tier2-disk3", Kind: loggen.DiskFailed, Attrs: map[string]string{"age_hours": "300"}},
		{Time: ts(13, 1), Node: "ddn1-tier0-disk9", Kind: loggen.DiskFailed, Attrs: map[string]string{"age_hours": "5200"}},
		{Time: ts(23, 1), Node: "ddn1-tier5-disk1", Kind: loggen.DiskFailed}, // no age attr
		{Time: ts(29, 0), Node: "window-close", Kind: loggen.JobSubmit},
	}
	report, err := AnalyzeDisks(events, 480)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalFailures != 4 || report.Replacements != 1 {
		t.Errorf("failures/replacements = %d/%d, want 4/1", report.TotalFailures, report.Replacements)
	}
	if len(report.ByDay) != 3 {
		t.Errorf("failure days = %d, want 3", len(report.ByDay))
	}
	if report.ByDay[0].Failures != 2 {
		t.Errorf("first day failures = %d, want 2", report.ByDay[0].Failures)
	}
	wantPerWeek := 4.0 / (ts(29, 0).Sub(ts(1, 0)).Hours() / 168)
	if math.Abs(report.PerWeek-wantPerWeek) > 1e-9 {
		t.Errorf("per week = %v, want %v", report.PerWeek, wantPerWeek)
	}
	// Exposure per incident: 4 failure events, the working replacement disk
	// in the repaired slot censored at its own age, and the 476 never-failed
	// slots censored at the window length — 481 observations in total.
	if report.Fit.Shape <= 0 || report.Fit.N != 481 || report.Fit.Events != 4 {
		t.Errorf("unexpected fit %+v", report.Fit)
	}
	if len(report.RepairHours) != 1 || math.Abs(report.RepairHours[0]-4) > 1e-9 {
		t.Errorf("repair lags = %v, want [4]", report.RepairHours)
	}
	if _, err := AnalyzeDisks(nil, 480); err != ErrEmptyLog {
		t.Error("empty log accepted")
	}
	if _, err := AnalyzeDisks(events, 0); err == nil {
		t.Error("zero population accepted")
	}
	if _, err := AnalyzeDisks([]loggen.Event{{Time: ts(1, 0), Kind: loggen.JobSubmit}}, 480); err == nil {
		t.Error("log without disk failures accepted")
	}
}

func TestAnalyzeDisksCensoringAccounting(t *testing.T) {
	// Slot A fails twice (its replacement disk fails again and is replaced a
	// second time); slot B fails once and stays down. Each incident is one
	// exposure: 3 failure observations, plus slot A's second replacement disk
	// right-censored at its own age, plus the never-failed survivors.
	events := []loggen.Event{
		{Time: ts(1, 0), Node: "open", Kind: loggen.JobSubmit},
		{Time: ts(2, 0), Node: "slotA", Kind: loggen.DiskFailed, Attrs: map[string]string{"age_hours": "100"}},
		{Time: ts(2, 4), Node: "slotA", Kind: loggen.DiskReplaced},
		{Time: ts(10, 4), Node: "slotA", Kind: loggen.DiskFailed}, // no age attr: age = time since renewal
		{Time: ts(10, 10), Node: "slotA", Kind: loggen.DiskReplaced},
		{Time: ts(12, 0), Node: "slotB", Kind: loggen.DiskFailed, Attrs: map[string]string{"age_hours": "50"}},
		{Time: ts(20, 0), Node: "close", Kind: loggen.JobSubmit},
	}
	report, err := AnalyzeDisks(events, 5)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalFailures != 3 || report.Replacements != 2 {
		t.Errorf("failures/replacements = %d/%d, want 3/2", report.TotalFailures, report.Replacements)
	}
	// 3 events + 1 working replacement disk (slot A) + 3 never-failed
	// survivors (population 5, two distinct failed slots). Slot B is still
	// down at the window end, so it adds no censored exposure.
	if report.Fit.N != 7 || report.Fit.Events != 3 {
		t.Errorf("fit N/events = %d/%d, want 7/3", report.Fit.N, report.Fit.Events)
	}
	if len(report.RepairHours) != 2 || math.Abs(report.RepairHours[0]-4) > 1e-9 || math.Abs(report.RepairHours[1]-6) > 1e-9 {
		t.Errorf("repair lags = %v, want [4 6]", report.RepairHours)
	}

	// A population smaller than the number of distinct failed slots is
	// impossible; the old code silently under-censored instead of erroring.
	if _, err := AnalyzeDisks(events, 1); err == nil {
		t.Error("impossible population (1 slot, 2 distinct failed disks) accepted")
	} else if !strings.Contains(err.Error(), "impossible disk population") {
		t.Errorf("unexpected error for impossible population: %v", err)
	}
	// population == distinct failed slots is legal: every slot failed.
	if _, err := AnalyzeDisks(events, 2); err != nil {
		t.Errorf("population == distinct failed disks rejected: %v", err)
	}
}

func TestDeriveRatesOnSyntheticABELog(t *testing.T) {
	// End-to-end: generate the calibrated synthetic ABE logs and check that
	// the derived model parameters land near the paper's published values.
	logs, err := loggen.Generate(loggen.ABEConfig())
	if err != nil {
		t.Fatal(err)
	}
	rates, err := DeriveRates(logs, 480)
	if err != nil {
		t.Fatal(err)
	}
	if rates.CFSAvailability < 0.95 || rates.CFSAvailability > 0.995 {
		t.Errorf("availability from log = %v, want within the paper's 0.97-0.98 band (±loose)", rates.CFSAvailability)
	}
	if rates.TransientJobFailureFraction < 0.02 || rates.TransientJobFailureFraction > 0.04 {
		t.Errorf("transient job failure fraction = %v, want ~0.028 (1234/44085)", rates.TransientJobFailureFraction)
	}
	if rates.OtherJobFailureFraction <= 0 || rates.OtherJobFailureFraction > 0.01 {
		t.Errorf("other job failure fraction = %v, want ~0.004", rates.OtherJobFailureFraction)
	}
	ratio := rates.TransientJobFailureFraction / rates.OtherJobFailureFraction
	if ratio < 3 || ratio > 12 {
		t.Errorf("transient:other ratio = %v, want around 5-7", ratio)
	}
	if rates.JobsPerHour < 11 || rates.JobsPerHour > 15 {
		t.Errorf("jobs per hour = %v, want ~12.85", rates.JobsPerHour)
	}
	// The Weibull survival fit should show infant mortality (shape < 1) and
	// be loosely near the paper's 0.6963571 given the short window.
	if rates.DiskWeibullShape <= 0.3 || rates.DiskWeibullShape >= 1.2 {
		t.Errorf("disk Weibull shape = %v, want well below wear-out territory (~0.7 fit)", rates.DiskWeibullShape)
	}
	if rates.DiskReplacementsPerWeek <= 0 || rates.DiskReplacementsPerWeek > 3 {
		t.Errorf("disk replacements per week = %v, want the paper's 0-2 band", rates.DiskReplacementsPerWeek)
	}
	if rates.OutagesPerMonth <= 0 || rates.MeanOutageHours <= 0 {
		t.Errorf("outage rates not derived: %+v", rates)
	}
	if _, err := DeriveRates(nil, 480); err == nil {
		t.Error("nil logs accepted")
	}
}
