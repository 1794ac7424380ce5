package netmr

import (
	"testing"
	"time"

	"hetmr/internal/rpcnet"
)

// Dynamic-scheduler behaviour over real sockets: speculation and
// injected stragglers must not change job results, and the board's
// accounting must surface through Status.

func TestSpeculativeStragglerOverTCP(t *testing.T) {
	// Tracker 0 sleeps 150ms per task — well over 10x the real task
	// cost — while its peers heartbeat every 10ms and speculate.
	c, err := StartCluster(Config{Workers: 3, Slots: 2, BlockSize: 1024, Heartbeat: 10 * time.Millisecond,
		Speculative: true, TaskDelays: []time.Duration{150 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	id, err := c.Client.Submit(JobSpec{
		Name: "pi-straggler", Kernel: "pi", Samples: 90_000, NumTasks: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	result, err := waitResult(c.Client, id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var pi PiResult
	if err := rpcnet.Unmarshal(result, &pi); err != nil {
		t.Fatal(err)
	}

	// Same job on a healthy cluster without speculation: bit-identical.
	plain := startTestCluster(t, 3, 1024)
	raw, err := submitAndWait(plain.Client, JobSpec{
		Name: "pi-plain", Kernel: "pi", Samples: 90_000, NumTasks: 9,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var ref PiResult
	if err := rpcnet.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	if pi.Inside != ref.Inside || pi.Total != ref.Total || pi.Pi != ref.Pi {
		t.Errorf("straggler+speculation changed the result: %+v vs %+v", pi, ref)
	}

	// The board's accounting must be visible: all tasks completed,
	// and the straggler cannot have won them all.
	st, err := c.Client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Completed != 9 {
		t.Errorf("status = %+v, want 9 completed", st)
	}
	if st.Attempts < 9 {
		t.Errorf("attempts = %d, want >= 9", st.Attempts)
	}
	sum := 0
	for _, n := range st.Counts {
		sum += n
	}
	if sum != 9 {
		t.Errorf("per-tracker counts %v sum to %d, want 9", st.Counts, sum)
	}
	if st.Counts["tracker-0"] == 9 {
		t.Error("straggler tracker won every task; dynamic scheduling had no effect")
	}
}

func TestStatusUnknownJob(t *testing.T) {
	c := startTestCluster(t, 1, 1024)
	if _, err := c.Client.Status(404); err == nil {
		t.Error("Status on unknown job should fail")
	}
}
