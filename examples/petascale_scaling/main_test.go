package main

import (
	"strings"
	"testing"

	"repro/internal/abe"
	"repro/internal/san"
)

func TestRecommendSpareOSS(t *testing.T) {
	// At petascale the paper finds ~3% improvement; with few replications we
	// only require a positive, sensible delta and a non-empty finding.
	rec, err := recommendSpareOSS(abe.Petascale(), san.Options{Mission: 8760, Replications: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Delta <= 0 || rec.Delta > 0.1 {
		t.Errorf("spare OSS delta = %v, want a small positive improvement", rec.Delta)
	}
	if !strings.Contains(rec.Finding, "standby-spare OSS") {
		t.Errorf("finding = %q", rec.Finding)
	}
	if _, err := recommendSpareOSS(abe.Config{}, san.Options{Mission: 4380, Replications: 8, Seed: 7}); err == nil {
		t.Error("invalid config accepted")
	}
}
