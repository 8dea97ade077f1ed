// Package loganalysis implements the failure-log analysis pipeline of the
// paper's Section 3.3: it parses SAN and compute logs, applies temporal and
// causal filtering to extract failure events, and computes the summaries the
// paper publishes — the outage/availability table (Table 1), per-day Lustre
// mount-failure counts (Table 2), job execution statistics (Table 3), and
// the disk-failure survival analysis (Table 4). The derived rates are what
// parameterize the stochastic model (Table 5).
package loganalysis

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/loggen"
	"repro/internal/survival"
)

// ErrEmptyLog reports an analysis invoked on an empty event set.
var ErrEmptyLog = errors.New("loganalysis: empty log")

// Parse reads a textual log stream into events (convenience wrapper over
// loggen.Read so callers only import this package).
func Parse(r io.Reader) ([]loggen.Event, error) {
	return loggen.Read(r)
}

// ---------------------------------------------------------------------------
// Table 1: outages and availability
// ---------------------------------------------------------------------------

// Outage is one CFS-visible outage extracted from the SAN log.
type Outage struct {
	Cause string
	Start time.Time
	End   time.Time
}

// Hours returns the outage duration in hours.
func (o Outage) Hours() float64 { return o.End.Sub(o.Start).Hours() }

// OutageReport is the availability summary derived from the SAN log.
type OutageReport struct {
	// Outages lists the extracted outages in start order.
	Outages []Outage
	// WindowStart/WindowEnd bound the observation window.
	WindowStart time.Time
	WindowEnd   time.Time
	// DowntimeHours is the total (coalesced) downtime.
	DowntimeHours float64
	// RawOutageHours is the sum of the individual outage durations before
	// coalescing. When outages overlap, RawOutageHours exceeds DowntimeHours.
	RawOutageHours float64
	// Availability is 1 - downtime/window.
	Availability float64
	// DowntimeByCause attributes each outage's raw (uncoalesced) duration to
	// its cause. Invariant: the per-cause hours sum to RawOutageHours, so with
	// overlapping mixed-cause outages the sum over causes can exceed the
	// coalesced DowntimeHours — the split answers "how long was each cause
	// active", not "how much wall-clock downtime does each cause own".
	DowntimeByCause map[string]float64
}

// MeanOutageHours is the mean duration of the individual outages. It is
// computed from the raw per-outage durations: coalescing is a wall-clock
// downtime concept, and dividing coalesced downtime by the uncoalesced outage
// count would understate the mean whenever outages overlap.
func (r OutageReport) MeanOutageHours() float64 {
	if len(r.Outages) == 0 {
		return 0
	}
	return r.RawOutageHours / float64(len(r.Outages))
}

// OutageDurations returns the raw per-outage durations in hours, in outage
// order — the empirical sample the calibration pipeline fits outage-duration
// distributions from.
func (r OutageReport) OutageDurations() []float64 {
	durations := make([]float64, len(r.Outages))
	for i, o := range r.Outages {
		durations[i] = o.Hours()
	}
	return durations
}

// AnalyzeOutages extracts outages from SAN-log events and computes the CFS
// availability over the log window. Overlapping outages are coalesced
// (causal filtering: a network blip reported during an I/O hardware outage
// is not double-counted); an OUTAGE_START without a matching OUTAGE_END is
// closed at the window end. A log without outage records is a valid
// observation: the report has no outages and availability 1 over the event
// window.
func AnalyzeOutages(events []loggen.Event) (OutageReport, error) {
	if len(events) == 0 {
		return OutageReport{}, ErrEmptyLog
	}
	sorted := sortedByTime(events)
	windowStart := sorted[0].Time
	windowEnd := sorted[len(sorted)-1].Time

	var outages []Outage
	open := map[string]int{} // node -> index of the outage still awaiting its end record
	for _, e := range sorted {
		switch e.Kind {
		case loggen.OutageStart:
			if _, inProgress := open[e.Node]; !inProgress {
				outages = append(outages, Outage{Cause: e.Attrs["cause"], Start: e.Time, End: windowEnd})
				open[e.Node] = len(outages) - 1
			}
		case loggen.OutageEnd:
			if idx, inProgress := open[e.Node]; inProgress {
				outages[idx].End = e.Time
				delete(open, e.Node)
			}
		}
	}
	report := OutageReport{
		Outages:         outages,
		WindowStart:     windowStart,
		WindowEnd:       windowEnd,
		DowntimeByCause: map[string]float64{},
	}
	// Coalesce overlapping outages for total downtime while attributing
	// per-cause downtime to each outage individually.
	sort.Slice(outages, func(i, j int) bool { return outages[i].Start.Before(outages[j].Start) })
	var mergedEnd time.Time
	for _, o := range outages {
		report.DowntimeByCause[o.Cause] += o.Hours()
		report.RawOutageHours += o.Hours()
		start := o.Start
		if start.Before(mergedEnd) {
			start = mergedEnd
		}
		if o.End.After(start) {
			report.DowntimeHours += o.End.Sub(start).Hours()
		}
		if o.End.After(mergedEnd) {
			mergedEnd = o.End
		}
	}
	window := windowEnd.Sub(windowStart).Hours()
	if window <= 0 {
		return OutageReport{}, errors.New("loganalysis: degenerate observation window")
	}
	report.Availability = 1 - report.DowntimeHours/window
	return report, nil
}

// ---------------------------------------------------------------------------
// Table 2: Lustre mount failures per day
// ---------------------------------------------------------------------------

// MountFailureDay aggregates the compute nodes that reported a Lustre mount
// failure on one calendar day.
type MountFailureDay struct {
	Date  time.Time // midnight UTC of the day
	Nodes int       // distinct nodes that reported at least one failure
}

// AnalyzeMountFailures aggregates MOUNT_FAILURE events per day, counting
// each node at most once per day (temporal filtering of repeated reports
// from the same node during one incident).
func AnalyzeMountFailures(events []loggen.Event) ([]MountFailureDay, error) {
	if len(events) == 0 {
		return nil, ErrEmptyLog
	}
	perDay := map[time.Time]map[string]bool{}
	for _, e := range events {
		if e.Kind != loggen.MountFailure {
			continue
		}
		day := e.Time.UTC().Truncate(24 * time.Hour)
		if perDay[day] == nil {
			perDay[day] = map[string]bool{}
		}
		perDay[day][e.Node] = true
	}
	days := make([]MountFailureDay, 0, len(perDay))
	for day, nodes := range perDay {
		days = append(days, MountFailureDay{Date: day, Nodes: len(nodes)})
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Date.Before(days[j].Date) })
	return days, nil
}

// ---------------------------------------------------------------------------
// Table 3: job statistics
// ---------------------------------------------------------------------------

// JobStats summarizes job submissions and failures (the paper's Table 3).
type JobStats struct {
	TotalJobs         int
	TransientFailures int
	OtherFailures     int
	WindowStart       time.Time
	WindowEnd         time.Time
}

// FailureRatio returns how many times more likely a transient failure is
// than another failure (the paper reports ~5x). A log with transient failures
// but no other failures yields +Inf — transient failures dominate without
// bound — which keeps "no other failures" distinguishable from "no transient
// failures" (ratio 0). A log with no failures at all yields 0.
func (s JobStats) FailureRatio() float64 {
	if s.OtherFailures == 0 {
		if s.TransientFailures > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return float64(s.TransientFailures) / float64(s.OtherFailures)
}

// JobFailureFraction returns failed jobs (any cause) over submitted jobs.
func (s JobStats) JobFailureFraction() float64 {
	if s.TotalJobs == 0 {
		return 0
	}
	return float64(s.TransientFailures+s.OtherFailures) / float64(s.TotalJobs)
}

// ClusterUtility returns the paper's CU measure derived from the log:
// 1 - failedJobs/totalJobs.
func (s JobStats) ClusterUtility() float64 { return 1 - s.JobFailureFraction() }

// AnalyzeJobs computes job statistics from compute-log events.
func AnalyzeJobs(events []loggen.Event) (JobStats, error) {
	if len(events) == 0 {
		return JobStats{}, ErrEmptyLog
	}
	stats := JobStats{}
	first, last := time.Time{}, time.Time{}
	for _, e := range events {
		if first.IsZero() || e.Time.Before(first) {
			first = e.Time
		}
		if e.Time.After(last) {
			last = e.Time
		}
		switch e.Kind {
		case loggen.JobSubmit:
			stats.TotalJobs++
		case loggen.JobEnd:
			switch e.Attrs["status"] {
			case loggen.JobFailedTransient:
				stats.TransientFailures++
			case loggen.JobFailedFileSystem:
				stats.OtherFailures++
			}
		}
	}
	if stats.TotalJobs == 0 {
		return JobStats{}, errors.New("loganalysis: no job records in compute log")
	}
	stats.WindowStart = first
	stats.WindowEnd = last
	return stats, nil
}

// ---------------------------------------------------------------------------
// Table 4: disk failures and survival analysis
// ---------------------------------------------------------------------------

// DiskFailureDay aggregates disk failures per calendar day.
type DiskFailureDay struct {
	Date     time.Time
	Failures int
}

// DiskReport is the disk-failure summary and Weibull fit (Table 4).
type DiskReport struct {
	// ByDay lists the failure counts per day with at least one failure.
	ByDay []DiskFailureDay
	// TotalFailures is the number of DISK_FAILED records.
	TotalFailures int
	// Replacements is the number of DISK_REPLACED records.
	Replacements int
	// PerWeek is the average number of failures per week over the window.
	PerWeek float64
	// RepairHours lists the observed failure-to-replacement lags per disk
	// incident, in event order — the empirical sample the calibration
	// pipeline fits replacement-time distributions from.
	RepairHours []float64
	// Fit is the censored Weibull fit over the disk population.
	Fit survival.WeibullFit
}

// AnalyzeDisks aggregates disk incidents and performs the survival analysis.
// population is the number of monitored disk slots (480 for ABE's scratch
// partition); it must cover every slot that reports a failure, or the risk
// set would be silently under-censored, so a log naming more distinct failed
// slots than the population is an error. Exposure is counted per disk
// incident: each slot is a renewal process, so a replaced disk that fails
// again contributes a second failure observation, the working replacement
// disk at the window end contributes a right-censored observation at its own
// age, and slots that never failed are right-censored at the window length.
// Failure ages are taken from the log's age_hours attribute when present,
// otherwise from the slot's last renewal (replacement) time.
func AnalyzeDisks(events []loggen.Event, population int) (DiskReport, error) {
	if len(events) == 0 {
		return DiskReport{}, ErrEmptyLog
	}
	if population < 1 {
		return DiskReport{}, fmt.Errorf("loganalysis: invalid disk population %d", population)
	}
	sorted := sortedByTime(events)
	windowStart := sorted[0].Time
	windowEnd := sorted[len(sorted)-1].Time
	windowHours := windowEnd.Sub(windowStart).Hours()

	report := DiskReport{}
	perDay := map[time.Time]int{}
	var obs []survival.Observation
	// Per-slot renewal state: when the slot's current disk was installed
	// (window start for the original population) and the failure, if any,
	// still awaiting its replacement record.
	lastRenewal := map[string]time.Time{}
	pendingFail := map[string]time.Time{}
	failedDisks := map[string]bool{}
	for _, e := range sorted {
		switch e.Kind {
		case loggen.DiskFailed:
			report.TotalFailures++
			day := e.Time.UTC().Truncate(24 * time.Hour)
			perDay[day]++
			failedDisks[e.Node] = true
			installed := windowStart
			if t, ok := lastRenewal[e.Node]; ok {
				installed = t
			}
			age := e.Time.Sub(installed).Hours()
			if s, ok := e.Attrs["age_hours"]; ok {
				if parsed, err := strconv.ParseFloat(s, 64); err == nil && parsed > 0 {
					age = parsed
				}
			}
			if age <= 0 {
				age = 1
			}
			obs = append(obs, survival.Observation{Time: age, Event: true})
			pendingFail[e.Node] = e.Time
		case loggen.DiskReplaced:
			report.Replacements++
			if failedAt, ok := pendingFail[e.Node]; ok {
				report.RepairHours = append(report.RepairHours, e.Time.Sub(failedAt).Hours())
				delete(pendingFail, e.Node)
			}
			lastRenewal[e.Node] = e.Time
		}
	}
	if report.TotalFailures == 0 {
		return DiskReport{}, errors.New("loganalysis: no disk failures in log")
	}
	if population < len(failedDisks) {
		return DiskReport{}, fmt.Errorf("loganalysis: impossible disk population %d: log names %d distinct failed disks",
			population, len(failedDisks))
	}
	for day, n := range perDay {
		report.ByDay = append(report.ByDay, DiskFailureDay{Date: day, Failures: n})
	}
	sort.Slice(report.ByDay, func(i, j int) bool { return report.ByDay[i].Date.Before(report.ByDay[j].Date) })
	if windowHours > 0 {
		report.PerWeek = float64(report.TotalFailures) / (windowHours / 168)
	}

	// Right-censor the working replacement disks: a slot whose last failure
	// was repaired holds a new disk that survived from its installation to
	// the window end. Iterate in sorted node order so the observation list is
	// deterministic.
	replacedNodes := make([]string, 0, len(lastRenewal))
	for node := range lastRenewal {
		replacedNodes = append(replacedNodes, node)
	}
	sort.Strings(replacedNodes)
	for _, node := range replacedNodes {
		if _, stillDown := pendingFail[node]; stillDown {
			continue
		}
		// An orphan DISK_REPLACED with no preceding failure leaves the slot in
		// the never-failed pool below; censoring it here too would count the
		// slot twice.
		if !failedDisks[node] {
			continue
		}
		if age := windowEnd.Sub(lastRenewal[node]).Hours(); age > 0 {
			obs = append(obs, survival.Observation{Time: age, Event: false})
		}
	}
	// Right-censor the disks that survived the whole window. Their exposure
	// is at least the window length; without per-disk install dates we use
	// the window length itself, which matches the paper's treatment of the
	// truncated observation period.
	censorTime := windowHours
	if censorTime <= 0 {
		censorTime = 1
	}
	for i := len(failedDisks); i < population; i++ {
		obs = append(obs, survival.Observation{Time: censorTime, Event: false})
	}
	fit, err := survival.FitWeibull(obs)
	if err != nil {
		return DiskReport{}, fmt.Errorf("loganalysis: weibull fit: %w", err)
	}
	report.Fit = fit
	return report, nil
}

// ---------------------------------------------------------------------------
// Model-parameter extraction (Table 5 inputs)
// ---------------------------------------------------------------------------

// DerivedRates are the model parameters extracted from the logs, feeding the
// stochastic model of Section 4. The JSON tags are part of the machine-
// readable calibration report emitted by abesim -experiment paper_full.
type DerivedRates struct {
	// OutagesPerMonth is the observed CFS outage rate.
	OutagesPerMonth float64 `json:"outages_per_month"`
	// MeanOutageHours is the mean raw (uncoalesced) outage duration.
	MeanOutageHours float64 `json:"mean_outage_hours"`
	// CFSAvailability is the availability from the outage log.
	CFSAvailability float64 `json:"cfs_availability"`
	// TransientJobFailureFraction and OtherJobFailureFraction are per-job
	// failure probabilities.
	TransientJobFailureFraction float64 `json:"transient_job_failure_fraction"`
	OtherJobFailureFraction     float64 `json:"other_job_failure_fraction"`
	// JobsPerHour is the observed submission rate.
	JobsPerHour float64 `json:"jobs_per_hour"`
	// DiskWeibullShape and DiskMTBFHours come from the survival analysis.
	DiskWeibullShape float64 `json:"disk_weibull_shape"`
	DiskMTBFHours    float64 `json:"disk_mtbf_hours"`
	// DiskReplacementsPerWeek is the observed replacement pace.
	DiskReplacementsPerWeek float64 `json:"disk_replacements_per_week"`
}

// DeriveRates runs the full pipeline over both logs and returns the model
// parameters.
func DeriveRates(logs *loggen.Logs, diskPopulation int) (DerivedRates, error) {
	if logs == nil {
		return DerivedRates{}, ErrEmptyLog
	}
	outages, err := AnalyzeOutages(logs.SAN)
	if err != nil {
		return DerivedRates{}, err
	}
	jobs, err := AnalyzeJobs(logs.Compute)
	if err != nil {
		return DerivedRates{}, err
	}
	disks, err := AnalyzeDisks(logs.SAN, diskPopulation)
	if err != nil {
		return DerivedRates{}, err
	}
	return DeriveRatesFromReports(outages, jobs, disks), nil
}

// DeriveRatesFromReports computes the model parameters from already-run
// analyses, so callers that need the underlying reports too (the calibration
// pipeline) do not pay for a second pass over the logs.
func DeriveRatesFromReports(outages OutageReport, jobs JobStats, disks DiskReport) DerivedRates {
	sanWindowHours := outages.WindowEnd.Sub(outages.WindowStart).Hours()
	jobWindowHours := jobs.WindowEnd.Sub(jobs.WindowStart).Hours()
	rates := DerivedRates{
		CFSAvailability:             outages.Availability,
		TransientJobFailureFraction: float64(jobs.TransientFailures) / float64(jobs.TotalJobs),
		OtherJobFailureFraction:     float64(jobs.OtherFailures) / float64(jobs.TotalJobs),
		DiskWeibullShape:            disks.Fit.Shape,
		DiskMTBFHours:               disks.Fit.MTBF(),
		DiskReplacementsPerWeek:     disks.PerWeek,
	}
	if sanWindowHours > 0 {
		rates.OutagesPerMonth = float64(len(outages.Outages)) / (sanWindowHours / 720)
	}
	rates.MeanOutageHours = outages.MeanOutageHours()
	if jobWindowHours > 0 {
		rates.JobsPerHour = float64(jobs.TotalJobs) / jobWindowHours
	}
	return rates
}

// sortedByTime returns a copy of events sorted by timestamp.
func sortedByTime(events []loggen.Event) []loggen.Event {
	out := make([]loggen.Event, len(events))
	copy(out, events)
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}
