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

// listingSink is a Sink that records the live DFS namespace at its
// first Write, the moment the backend starts delivering the result.
type listingSink struct {
	list  func() []string
	files []string
	wrote bool
}

func (s *listingSink) Write(p []byte) (int, error) {
	if !s.wrote {
		s.files, s.wrote = s.list(), true
	}
	return len(p), nil
}

// TestStagedBlocksFreedAfterJobs pins block lifetime on the long-lived
// runners: a job's staged input lives exactly as long as the job, so N
// jobs on one runner leave the DFS as empty as they found it —
// namespace and block stores both — and so does a job that fails. On
// live, a result never enters the DFS: while a Sort or Encrypt result
// streams out, the namespace holds only the staged input.
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
		fs := r.(interface{ Cluster() *core.LiveCluster }).Cluster().FS
		for _, job := range lifetimeJobs() {
			var sink *listingSink
			if job.Sink != nil {
				sink = &listingSink{list: fs.List}
				job.Sink = sink
			}
			if _, err := r.Run(job); err != nil {
				t.Fatalf("%s: %v", job.Kind, err)
			}
			if sink != nil && len(sink.files) != 1 {
				t.Errorf("%s: DFS while the result streamed = %v, want only the staged input", job.Kind, sink.files)
			}
		}
		if _, err := r.Run(tornSort()); err == nil {
			t.Fatal("sort of a torn record succeeded")
		}
		if files := fs.List(); len(files) != 0 {
			t.Errorf("DFS after the jobs = %v, want empty", files)
		}
	})
}

// TestStagedBlockLossFailsTheJob pins what replication 1 gives up on the
// booted net cluster: a staged block has one replica, so closing the
// DataNode that holds it mid-job fails the job — with an error, well
// inside JobTimeout, never a hang and never wrong bytes in the Sink —
// and the staged input is still deleted from the DataNodes that remain.
func TestStagedBlockLossFailsTheJob(t *testing.T) {
	cfg := conformanceConfig()
	cfg.MaxAttempts = 2
	cfg.JobTimeout = 30 * time.Second
	// Every task sleeps first, so the DataNode is gone before any block
	// is read.
	cfg.FaultDelays = []time.Duration{200 * time.Millisecond, 200 * time.Millisecond, 200 * time.Millisecond}
	c, err := Open("net", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clus := c.Runner().(interface{ Cluster() *netmr.Cluster }).Cluster()
	input := bytes.Repeat([]byte("replication one "), 2_500) // 40 000 bytes: 8 blocks
	job := func(sink io.Writer) *Job {
		return &Job{Kind: Encrypt, Source: bytes.NewReader(input), Key: bytes.Repeat([]byte{7}, 16), Sink: sink}
	}
	var want bytes.Buffer
	if _, err := c.Run(job(&want)); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	h, err := c.Submit(job(&got))
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i, dn := range clus.DNs {
		if dn.BlockCount() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no DataNode holds the staged input")
	}
	clus.DNs[victim].Close()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := h.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("the job succeeded without one of its blocks")
		}
		if elapsed := time.Since(start); elapsed > cfg.JobTimeout/3 {
			t.Errorf("the job took %v to fail, want well inside its %v timeout", elapsed, cfg.JobTimeout)
		}
	case <-time.After(cfg.JobTimeout):
		t.Fatal("Wait still blocked after the job timeout")
	}
	if !bytes.HasPrefix(want.Bytes(), got.Bytes()) {
		t.Errorf("the failed job wrote %d bytes to its Sink that are not the reference output", got.Len())
	}

	stored := func() (n int) {
		for i, dn := range clus.DNs {
			if i != victim {
				n += dn.BlockCount()
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for stored() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := stored(); n != 0 {
		t.Errorf("surviving datanodes still store %d blocks of the failed job", n)
	}
}
