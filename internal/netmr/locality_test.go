package netmr

import (
	"testing"
	"time"
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
		l, _, r := tt.FetchStats()
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
	nn, err := StartNameNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Close()
	dn, err := StartDataNode("127.0.0.1:0", nn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dn.Close()
	jt, err := StartJobTracker("127.0.0.1:0", nn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	tt, err := StartTaskTracker("lonely", jt.Addr(), "", 2, 20*time.Millisecond)
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
	local, _, remote := tt.FetchStats()
	if local != 0 || remote != 4 {
		t.Errorf("stats = %d local / %d remote, want 0/4", local, remote)
	}
}
