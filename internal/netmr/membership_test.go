package netmr

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, msg)
}

// trackerState looks up one tracker's lifecycle state in the
// JobTracker's membership view ("" when unknown).
func trackerStateOf(jt *JobTracker, id string) string {
	for _, ti := range jt.Trackers() {
		if ti.ID == id {
			return ti.State
		}
	}
	return ""
}

// A worker pair added at runtime registers with both masters over its
// first heartbeats — no restart, no static wiring — and takes real
// work.
func TestAddWorkerJoinsAtRuntime(t *testing.T) {
	// Every task, the newcomer's (worker 2) included, sleeps 10 ms
	// first, so the job spans several ticks. Bare pi tasks take about
	// 0.1 ms: one tracker's completion-driven beats could pull all 30
	// inside one 30 ms tick, before the newcomer's first beat asks.
	taskTime := 10 * time.Millisecond
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1024, Heartbeat: 30 * time.Millisecond,
		Racks: 2, TaskDelays: []time.Duration{taskTime, taskTime, taskTime}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	dn, tt, err := c.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	// Worker 2 takes the next round-robin rack slot: 2 % 2 = rack 0.
	if got, want := tt.Rack(), RackName(0); got != want {
		t.Errorf("new worker rack = %q, want %q", got, want)
	}
	waitFor(t, 5*time.Second, func() bool {
		return trackerStateOf(c.JT, tt.ID) == NodeAlive
	}, "new tracker never registered with the JobTracker")
	waitFor(t, 5*time.Second, func() bool {
		nodes, err := c.Client.ListDataNodes()
		if err != nil {
			return false
		}
		for _, d := range nodes {
			if d.Addr == dn.Addr() && d.State == NodeAlive {
				return true
			}
		}
		return false
	}, "new datanode never registered with the NameNode")

	// Enough tasks that every tracker, including the newcomer, wins
	// some.
	id, err := c.Client.Submit(JobSpec{Name: "elastic-pi", Kernel: "pi", Samples: 300000, NumTasks: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitResult(c.Client, id, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := c.Client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Counts[tt.ID] == 0 {
		t.Errorf("runtime-added tracker %s completed no tasks: counts = %v", tt.ID, st.Counts)
	}
}

// Decommissioning a worker mid-job drains it gracefully: in-flight
// tasks finish, lost replicas fail over, and the job's output is
// bit-identical to the sequential reference.
func TestDecommissionWorkerMidJobBitIdentical(t *testing.T) {
	c, err := StartCluster(Config{Workers: 3, Slots: 2, BlockSize: 512, Heartbeat: 30 * time.Millisecond,
		Racks: 2, TaskDelays: []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	// Registration rides the first heartbeat: the drain below needs
	// worker 2 in the membership view before it can be asked to leave.
	waitFor(t, 5*time.Second, func() bool {
		return trackerStateOf(c.JT, "tracker-2") == NodeAlive
	}, "tracker-2 never registered")

	plain := make([]byte, 24*512)
	for i := range plain {
		plain[i] = byte(i * 13)
	}
	if err := c.Client.WriteFile("/drain-plain", plain, ""); err != nil {
		t.Fatal(err)
	}
	key := []byte("0123456789abcdef")
	iv := []byte("fedcba9876543210")
	args, err := rpcnet.Marshal(AESArgs{Key: key, IV: iv, BlockBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Client.Submit(JobSpec{Name: "drain-enc", Kernel: "aes-ctr", Input: "/drain-plain", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	// The ciphertext pieces a draining tracker produced stay fetchable
	// in its store until the client has collected them, so the drain
	// below ends only once this collection has released the job.
	var cipherText bytes.Buffer
	collected := make(chan error, 1)
	go func() {
		_, err := c.Client.WaitOutput(id, 15*time.Second, &cipherText)
		collected <- err
	}()
	// Retire worker 2 while the job is in flight: the drain must let
	// its running tasks finish and the DFS must re-home its replicas.
	if err := c.DecommissionWorker(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(c.TTs); got != 2 {
		t.Errorf("roster holds %d trackers after decommission, want 2", got)
	}
	if err := <-collected; err != nil {
		t.Fatal(err)
	}
	cip, _ := kernels.NewCipher(key)
	want := make([]byte, len(plain))
	kernels.CTRStream(cip, iv, 0, want, plain)
	if !bytes.Equal(cipherText.Bytes(), want) {
		t.Fatal("output across a mid-job decommission differs from sequential reference")
	}
	if state := trackerStateOf(c.JT, "tracker-2"); state == NodeAlive {
		t.Errorf("decommissioned tracker still %q in the membership view", state)
	}
}

// A DataNode decommission re-replicates every block it holds before
// the node departs: the replica sets are restored to the target count,
// spread over at least two racks, and never reference the retired
// node.
func TestDataNodeDecommissionReReplicates(t *testing.T) {
	c, err := StartCluster(Config{Workers: 4, Slots: 2, BlockSize: 512, Heartbeat: 30 * time.Millisecond,
		Racks: 2, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	data := make([]byte, 8*512)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := c.Client.WriteFile("/repl", data, ""); err != nil {
		t.Fatal(err)
	}
	retired := c.DNs[1].Addr()
	if err := c.Client.DecommissionDataNode(retired); err != nil {
		t.Fatal(err)
	}

	nodes, err := c.Client.ListDataNodes()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range nodes {
		if d.Addr == retired {
			t.Errorf("retired datanode %s still in the membership view (state %s)", d.Addr, d.State)
		}
	}
	nnc, err := rpcnet.Dial(c.NN.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nnc.Close()
	var lookup LookupReply
	if err := nnc.Call("Lookup", LookupArgs{File: "/repl"}, &lookup); err != nil {
		t.Fatal(err)
	}
	for _, blk := range lookup.Blocks {
		addrs := blk.Replicas
		if len(addrs) != 2 {
			t.Errorf("block %d has %d replicas after decommission, want 2", blk.ID, len(addrs))
		}
		racks := make(map[string]bool)
		for i, addr := range addrs {
			if addr == retired {
				t.Errorf("block %d still lists retired replica %s", blk.ID, retired)
			}
			racks[blk.RackOfReplica(i)] = true
		}
		if len(racks) < 2 {
			t.Errorf("block %d replicas cover %d rack(s) after repair, want >= 2", blk.ID, len(racks))
		}
	}
	got, err := c.Client.ReadFile("/repl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file corrupted across datanode decommission")
	}
}

// A tracker that dies and later comes back under the same identity
// rejoins cleanly: the liveness sweep declares it dead, the rejoin
// heartbeat flips it back to alive, and it completes work again.
func TestDeadTrackerRejoinsCleanly(t *testing.T) {
	// Every task outlasts a heartbeat tick (the injected delay): a
	// tracker refills a slot the moment its task ends, so tasks shorter
	// than a tick would all be eaten by whichever tracker beat first.
	const tick, taskTime = 30 * time.Millisecond, 60 * time.Millisecond
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1024, Heartbeat: tick,
		DeadAfter: 150 * time.Millisecond, TaskDelays: []time.Duration{taskTime, taskTime}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	victim := c.TTs[1]
	localDN := c.DNs[1].Addr()
	waitFor(t, 5*time.Second, func() bool {
		return trackerStateOf(c.JT, victim.ID) == NodeAlive
	}, "victim tracker never registered")
	victim.Kill()
	waitFor(t, 5*time.Second, func() bool {
		return trackerStateOf(c.JT, victim.ID) == NodeDead
	}, "killed tracker never declared dead")

	reborn, err := StartTaskTracker(victim.ID, c.JT.Addr(), localDN, 0, Config{Slots: 2, Heartbeat: tick,
		TaskDelays: []time.Duration{taskTime}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reborn.Stop)
	waitFor(t, 5*time.Second, func() bool {
		return trackerStateOf(c.JT, victim.ID) == NodeAlive
	}, "rejoined tracker never declared alive")

	id, err := c.Client.Submit(JobSpec{Name: "rejoin-pi", Kernel: "pi", Samples: 200000, NumTasks: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitResult(c.Client, id, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := c.Client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Counts[victim.ID] == 0 {
		t.Errorf("rejoined tracker %s completed no tasks: counts = %v", victim.ID, st.Counts)
	}
}

// On a two-rack cluster with rack-spread replicas, every block has a
// same-rack copy, so the grant loop's node-local and rack-local passes
// keep remote fetches off the books entirely.
func TestRackLocalityPreferred(t *testing.T) {
	c, err := StartCluster(Config{Workers: 4, Slots: 2, BlockSize: 512, Heartbeat: 30 * time.Millisecond,
		Racks: 2, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	data := make([]byte, 32*512)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := c.Client.WriteFile("/rackdata", data, ""); err != nil {
		t.Fatal(err)
	}
	args, err := rpcnet.Marshal(AESArgs{
		Key: []byte("0123456789abcdef"), IV: make([]byte, 16), BlockBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, c.Client, JobSpec{
		Name: "rack-enc", Kernel: "aes-ctr", Input: "/rackdata", Args: args,
	})
	local, rack, remote := c.FetchTotals()
	t.Logf("fetches: local=%d rack=%d remote=%d", local, rack, remote)
	if local+rack+remote == 0 {
		t.Fatal("no block fetches recorded")
	}
	if local == 0 {
		t.Error("node-local grant pass produced no local fetches")
	}
	if remote != 0 {
		t.Errorf("%d remote fetches despite a same-rack replica of every block", remote)
	}
}

// Sanity on the exported membership view shapes the admin CLI prints.
func TestListTrackersSorted(t *testing.T) {
	c, err := StartCluster(Config{Workers: 3, Slots: 1, BlockSize: 1024, Heartbeat: 30 * time.Millisecond,
		Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	waitFor(t, 5*time.Second, func() bool {
		trackers, err := c.Client.ListTrackers()
		return err == nil && len(trackers) == 3
	}, "trackers never all registered")
	trackers, err := c.Client.ListTrackers()
	if err != nil {
		t.Fatal(err)
	}
	for i, ti := range trackers {
		if want := fmt.Sprintf("tracker-%d", i); ti.ID != want {
			t.Errorf("trackers[%d].ID = %q, want %q (sorted)", i, ti.ID, want)
		}
		if ti.Rack == "" {
			t.Errorf("tracker %s reports no rack", ti.ID)
		}
	}
}
