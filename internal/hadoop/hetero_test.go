package hadoop

import (
	"testing"

	"hetmr/internal/cluster"
	"hetmr/internal/sim"
)

// End-to-end heterogeneous-cluster behaviour (paper §V extension).

func TestHeterogeneousPiJobFasterWithMoreAccel(t *testing.T) {
	mk := func(accelerated int) sim.Time {
		job := &Job{Name: "het-pi",
			MapperFor: AcceleratedMapperFor(CellPiMapper{}, JavaPiMapper{})}
		for i := 0; i < 16; i++ {
			job.Splits = append(job.Splits, Split{Index: i, Samples: 5e8})
		}
		res, err := tryRunJob(4, DefaultConfig(), job,
			nil, cluster.WithAcceleratedNodes(accelerated))
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration()
	}
	none, all := mk(0), mk(4)
	if all >= none {
		t.Errorf("full acceleration (%v) not faster than none (%v)", all, none)
	}
	// The gap should be large: 5e8 samples at PPE vs SPE rates.
	if ratio := none.Seconds() / all.Seconds(); ratio < 5 {
		t.Errorf("acceleration speedup = %.1f, want substantial", ratio)
	}
}

func TestRemoteReadsAccounted(t *testing.T) {
	// All records hosted on node000 but preferred host set to a node
	// that doesn't exist in the split's records: with 2 nodes, half
	// the tasks land remote.
	job := &Job{Name: "remote", MapperFor: StaticMapperFor(EmptyMapper{})}
	for i := 0; i < 6; i++ {
		job.Splits = append(job.Splits, Split{
			Index: i,
			Records: []Record{
				{Bytes: 8 << 20, Hosts: []string{cluster.WorkerName(0)}},
			},
			// No preferred host: first-come assignment.
		})
	}
	res := runJob(t, 2, DefaultConfig(), job)
	if res.RemoteReads == 0 {
		t.Error("expected some remote reads with single-node data on a 2-node cluster")
	}
	if res.LocalReads == 0 {
		t.Error("expected some local reads on the hosting node")
	}
	if res.LocalReads+res.RemoteReads != 6 {
		t.Errorf("reads = %d+%d, want 6 total", res.LocalReads, res.RemoteReads)
	}
}

func TestRemoteReadsSlower(t *testing.T) {
	// The same job is slower when data is all on one node (remote
	// fetches over NICs) than when perfectly local.
	mkJob := func(host func(i int) string) *Job {
		job := &Job{Name: "loc", MapperFor: StaticMapperFor(EmptyMapper{})}
		for i := 0; i < 8; i++ {
			h := host(i)
			job.Splits = append(job.Splits, Split{
				Index:          i,
				Records:        []Record{{Bytes: 64 << 20, Hosts: []string{h}}},
				PreferredHosts: []string{h},
			})
		}
		return job
	}
	local := runJob(t, 4, DefaultConfig(), mkJob(func(i int) string {
		return cluster.WorkerName(i % 4)
	}))
	skewed := runJob(t, 4, DefaultConfig(), mkJob(func(i int) string {
		return cluster.WorkerName(0)
	}))
	if skewed.Duration() <= local.Duration() {
		t.Errorf("skewed placement (%v) should be slower than local (%v)",
			skewed.Duration(), local.Duration())
	}
}

func TestJobResultDuration(t *testing.T) {
	res := runJob(t, 1, DefaultConfig(), &Job{
		Name:      "d",
		MapperFor: StaticMapperFor(FixedMapper{Label: "f", PerSample: sim.Microsecond}),
		Splits:    []Split{{Index: 0, Samples: 1000}},
	})
	if res.Duration() != res.Finished-res.Submitted {
		t.Error("Duration mismatch")
	}
	if res.Duration() <= 0 {
		t.Error("non-positive duration")
	}
}
