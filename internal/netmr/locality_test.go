package netmr

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"hetmr/internal/metrics"
)

func TestLocalityPreferredAssignment(t *testing.T) {
	c := startTestCluster(t, 3, 1024)
	// Pin the whole file to DataNode 0; tracker-0's fetches should be
	// local and other trackers should mostly stay away while tracker-0
	// has free slots. With heartbeat racing we can't demand perfection,
	// but the aggregate local fraction must dominate for spread data.
	data := make([]byte, 30*1024)
	if err := c.Client.WriteFile("/spread", data, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := submitAndWait(c.Client, JobSpec{
		Name: "wc", Kernel: "wordcount", Input: "/spread",
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var local, remote int64
	for _, tt := range c.TTs {
		l, r := tt.FetchStats()
		local += l
		remote += r
	}
	if local+remote == 0 {
		t.Fatal("no fetches recorded")
	}
	if local < remote {
		t.Errorf("local=%d remote=%d: locality scheduling not preferring co-located blocks",
			local, remote)
	}
}

func TestLocalityStatsZeroWithoutLocalDN(t *testing.T) {
	// A tracker without a co-located DataNode counts everything
	// remote.
	nn, err := StartNameNode("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Close()
	dn, err := StartDataNode("127.0.0.1:0", nn.Addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dn.Close()
	jt, err := StartJobTracker("127.0.0.1:0", nn.Addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	tt, err := StartTaskTracker("lonely", jt.Addr(), "", 0, Config{Slots: 2, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Stop()
	client, _ := NewClient(nn.Addr(), jt.Addr(), 512)
	if err := client.WriteFile("/f", make([]byte, 2048), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := submitAndWait(client, JobSpec{
		Name: "wc", Kernel: "wordcount", Input: "/f",
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	local, remote := tt.FetchStats()
	if local != 0 || remote != 4 {
		t.Errorf("stats = %d local / %d remote, want 0/4", local, remote)
	}
}

// TestColocatedReadSkipsTheSocket: a tracker reads a block held by its
// own node's DataNode over rpcnet's in-process pipe — no socket byte
// moves, and the read counts as local. With that DataNode closed, the
// same fetch fails over to the other replica over TCP and counts as
// remote.
func TestColocatedReadSkipsTheSocket(t *testing.T) {
	const block = 64 << 10
	c := startTestCluster(t, 2, block) // replication 2: every block on both DataNodes
	data := bytes.Repeat([]byte("colocated "), block/10)
	if err := c.Client.WriteFile("/local", data, c.DNs[0].Addr()); err != nil {
		t.Fatal(err)
	}
	var lookup LookupReply
	if err := c.Client.nn("Lookup", LookupArgs{File: "/local"}, &lookup); err != nil || len(lookup.Blocks) != 1 {
		t.Fatalf("lookup: %+v, err %v", lookup, err)
	}
	blk := lookup.Blocks[0]
	tt := c.TTs[0]
	if !slices.Contains(blk.Replicas, tt.LocalDataNode) || len(blk.Replicas) != 2 {
		t.Fatalf("replicas %v, want both DataNodes", blk.Replicas)
	}
	read := func() (wire int64) {
		t.Helper()
		before := metrics.WireBytesRaw.Load()
		var got []byte
		err := tt.fetchBlock(blk, func(b []byte) error {
			got = bytes.Clone(b)
			return nil
		})
		if err != nil || !bytes.Equal(got, data[:blk.Size]) {
			t.Fatalf("fetch: %d bytes, err %v", len(got), err)
		}
		return metrics.WireBytesRaw.Load() - before
	}
	// Heartbeats run alongside, so the meter may move by a few control
	// bodies, never by a block.
	if wire := read(); wire >= blk.Size {
		t.Errorf("co-located read moved %d socket bytes for a %d-byte block", wire, blk.Size)
	}
	if local, remote := tt.FetchStats(); local != 1 || remote != 0 {
		t.Errorf("after the co-located read: %d local / %d remote, want 1/0", local, remote)
	}
	c.DNs[0].Close()
	if wire := read(); wire < blk.Size {
		t.Errorf("failover read moved %d socket bytes for a %d-byte block, want it over TCP", wire, blk.Size)
	}
	if local, remote := tt.FetchStats(); local != 1 || remote != 1 {
		t.Errorf("after the failover read: %d local / %d remote, want 1/1", local, remote)
	}
}
