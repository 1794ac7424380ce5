package analysis_test

import (
	"testing"

	"hetmr/internal/analysis"
	"hetmr/internal/analysis/analysistest"
)

func TestLockHeldCall(t *testing.T) {
	analysistest.Run(t, analysis.LockHeldCall, "lockheldcall")
}

func TestMustClose(t *testing.T) {
	analysistest.Run(t, analysis.MustClose, "mustclose")
}

func TestConfigDrop(t *testing.T) {
	analysistest.Run(t, analysis.ConfigDrop, "configdrop")
}

// TestSuiteOnOwnModule is the self-test the CI lane enforces: the
// whole module must stay hetlint-clean. Running it here too means a
// plain `go test ./...` catches new findings without the extra lane.
func TestSuiteOnOwnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	prog, err := analysis.LoadModule(".", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.Run(prog, analysis.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
