package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fig*.tsv from the current model (make figures-golden)")

// TestFiguresGolden pins the calibration: the four distributed figures,
// at the paper's full sweeps, must render the very TSV bytes committed
// under testdata/ (what `cmd/repro -tsv` writes). The shape tests in
// experiments_test.go tolerate drift inside their bands; this one does
// not, so a scheduler or runtime refactor that claims "same figures"
// is held to it. A deliberate recalibration regenerates the files with
// `make figures-golden`.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper sweeps")
	}
	gens := []func() (Figure, error){
		func() (Figure, error) { return Fig4ProportionalEncryption(Fig4Nodes) },
		func() (Figure, error) { return Fig5FixedEncryption(Fig5Nodes) },
		func() (Figure, error) { return Fig7DistributedPiSweep(Fig7NodeCount, Fig7Samples) },
		func() (Figure, error) { return Fig8DistributedPiScaling(Fig8Nodes) },
	}
	for _, gen := range gens {
		fig, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := fig.WriteTSV(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", fig.ID+".tsv")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s drifted from its golden:\n--- got\n%s--- want\n%s", fig.ID, got.Bytes(), want)
		}
	}
}
