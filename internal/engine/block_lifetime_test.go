package engine

import (
	"bytes"
	"io"
	"testing"
	"time"

	"hetmr/internal/core"
	"hetmr/internal/netmr"
)

// lifetimeJobs is every way a data job stages and returns bytes: the
// result inline, or streamed into a Sink.
func lifetimeJobs() []*Job {
	var jobs []*Job
	for _, c := range conformanceCases() {
		j := c.job
		jobs = append(jobs, j)
		if j.Kind == Sort || j.Kind == Encrypt {
			sunk := *j
			sunk.Sink = io.Discard
			jobs = append(jobs, &sunk)
		}
	}
	return jobs
}

// tornSort is a job that fails on the cluster, after its input was
// staged: a streamed dataset ending mid-record gets past validation
// and every sort attempt of its last block errors.
func tornSort() *Job {
	return &Job{Kind: Sort, Source: bytes.NewReader(make([]byte, 5_050))}
}

// TestStagedBlocksFreedAfterJobs pins block lifetime on the long-lived
// runners: a job's staged input (and, on live, its output file) lives
// exactly as long as the job, so N jobs on one runner leave the DFS as
// empty as they found it — namespace and block stores both — and so
// does a job that fails.
func TestStagedBlocksFreedAfterJobs(t *testing.T) {
	t.Run("net", func(t *testing.T) {
		r, err := New("net", conformanceConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for round := 0; round < 2; round++ {
			for _, job := range lifetimeJobs() {
				if _, err := r.Run(job); err != nil {
					t.Fatalf("%s: %v", job.Kind, err)
				}
			}
		}
		if _, err := r.Run(tornSort()); err == nil {
			t.Fatal("sort of a torn record succeeded")
		}
		clus := r.(interface{ Cluster() *netmr.Cluster }).Cluster()
		files, err := clus.Client.ListFiles()
		if err != nil || len(files) != 0 {
			t.Fatalf("namespace after the jobs = %v (err %v), want empty", files, err)
		}
		stored := func() int {
			n := 0
			for _, dn := range clus.DNs {
				n += dn.BlockCount()
			}
			return n
		}
		deadline := time.Now().Add(5 * time.Second)
		for stored() != 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := stored(); n != 0 {
			t.Errorf("datanodes still store %d block replicas after every job finished", n)
		}
	})
	t.Run("live", func(t *testing.T) {
		r, err := New("live", conformanceConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, job := range lifetimeJobs() {
			if _, err := r.Run(job); err != nil {
				t.Fatalf("%s: %v", job.Kind, err)
			}
		}
		if _, err := r.Run(tornSort()); err == nil {
			t.Fatal("sort of a torn record succeeded")
		}
		fs := r.(interface{ Cluster() *core.LiveCluster }).Cluster().FS
		if files := fs.List(); len(files) != 0 {
			t.Errorf("DFS after the jobs = %v, want empty", files)
		}
	})
}
