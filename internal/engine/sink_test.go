package engine

import (
	"errors"
	"io"
	"testing"

	"hetmr/internal/core"
	"hetmr/internal/netmr"
)

func TestSimRefusesSinkAboveFunctionalCap(t *testing.T) {
	r, err := New("sim", Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Run(&Job{Kind: Encrypt, Key: []byte("0123456789abcdef"),
		InputBytes: maxFunctionalSyntheticBytes + 100, Sink: io.Discard})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("sim accepted a Sink on a modelled-only dataset: %v", err)
	}
}

var errSinkFull = errors.New("sink full")

// failingSink refuses every write.
type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errSinkFull }

// TestFailingSinkFailsTheJob pins the one delivery path's error rule: a
// Sink that refuses the result fails the job on every backend, with an
// error that still names the Sink's, for every byte-output kind — and on
// live and net the staged input is freed all the same.
func TestFailingSinkFailsTheJob(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			r, err := New(backend, conformanceConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for _, c := range conformanceCases() {
				if c.job.Kind != Sort && c.job.Kind != Encrypt {
					continue
				}
				job := *c.job
				job.Sink = failingSink{}
				if _, err := r.Run(&job); !errors.Is(err, errSinkFull) {
					t.Errorf("%s: Run = %v, want the Sink's error", c.name, err)
				}
			}
			var files []string
			switch rr := r.(type) {
			case interface{ Cluster() *core.LiveCluster }:
				files = rr.Cluster().FS.List()
			case interface{ Cluster() *netmr.Cluster }:
				if files, err = rr.Cluster().Client.ListFiles(); err != nil {
					t.Fatal(err)
				}
			}
			if len(files) != 0 {
				t.Errorf("namespace after the failed jobs = %v, want empty", files)
			}
		})
	}
}
