package netmr

import (
	"slices"
	"strings"
	"testing"
	"time"

	"hetmr/internal/rpcnet"
)

func TestDFSDeleteAndList(t *testing.T) {
	c := startTestCluster(t, 2, 512)
	for _, f := range []string{"/b", "/a", "/c"} {
		if err := c.Client.WriteFile(f, make([]byte, 1000), ""); err != nil {
			t.Fatal(err)
		}
	}
	files, err := c.Client.ListFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 || files[0] != "/a" || files[2] != "/c" {
		t.Errorf("List = %v, want sorted [/a /b /c]", files)
	}
	stored := func() int {
		n := 0
		for _, dn := range c.DNs {
			n += dn.BlockCount()
		}
		return n
	}
	// 3 files x 2 blocks x 2 replicas.
	if got := stored(); got != 12 {
		t.Fatalf("datanodes store %d block replicas, want 12", got)
	}
	if err := c.Client.DeleteFile("/b"); err != nil {
		t.Fatal(err)
	}
	files, _ = c.Client.ListFiles()
	if len(files) != 2 {
		t.Errorf("after delete: %v", files)
	}
	if err := c.Client.DeleteFile("/b"); err == nil {
		t.Error("double delete should fail")
	}
	// Deleted file is gone from lookups.
	if _, err := c.Client.ReadFile("/b"); err == nil {
		t.Error("read of deleted file should fail")
	}
	// The replicas themselves go with each DataNode's next heartbeat —
	// and only the deleted file's.
	deadline := time.Now().Add(5 * time.Second)
	for stored() != 8 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := stored(); got != 8 {
		t.Errorf("datanodes store %d block replicas after the delete, want 8", got)
	}
	if _, err := c.Client.ReadFile("/a"); err != nil {
		t.Errorf("surviving file unreadable after a neighbour's delete: %v", err)
	}
}

func TestComputeJobDefaultTaskCount(t *testing.T) {
	c := startTestCluster(t, 1, 512)
	// NumTasks omitted: defaults to one task.
	result, err := submitAndWait(c.Client, JobSpec{
		Name: "one", Kernel: "pi", Samples: 1000,
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var pi PiResult
	if err := rpcnet.Unmarshal(result, &pi); err != nil {
		t.Fatal(err)
	}
	if pi.Total != 1000 {
		t.Errorf("total = %d", pi.Total)
	}
}

func TestDataNodeUnknownBlock(t *testing.T) {
	c := startTestCluster(t, 1, 512)
	dnc, err := rpcnet.Dial(c.DNs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dnc.Close()
	var get GetReply
	if err := dnc.Call("Get", GetArgs{ID: 9999}, &get); err == nil {
		t.Error("get of unknown block should fail")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	c := startTestCluster(t, 1, 512)
	nnc, err := rpcnet.Dial(c.NN.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nnc.Close()
	// Re-registering the same DataNode address must not duplicate it.
	addr := c.DNs[0].Addr()
	for i := 0; i < 2; i++ {
		if err := nnc.Call("Register", RegisterArgs{Addr: addr}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Writes still place on the single datanode without error.
	if err := c.Client.WriteFile("/x", make([]byte, 100), ""); err != nil {
		t.Fatal(err)
	}
}

// TestBlockFreesSurviveALostRegisterReply: the NameNode keeps naming a
// deleted file's replicas to their DataNode until a beat acknowledges
// them, so a Register reply lost after the NameNode handled it costs a
// repeat, not a replica leaked for good. Driven on the handlers alone,
// with no socket.
func TestBlockFreesSurviveALostRegisterReply(t *testing.T) {
	nn := &NameNode{files: make(map[string][]BlockInfo), nodes: newRoster[dnState](), freed: make(map[string][]int64)}
	t0 := time.Unix(1000, 0)
	beat := func(at time.Duration, acked []int64) []int64 {
		t.Helper()
		reply, err := nn.register(RegisterArgs{Addr: "dn", Freed: acked}, t0.Add(at))
		if err != nil {
			t.Fatal(err)
		}
		return reply.Free
	}
	beat(0, nil)
	var ids []int64
	for range 3 {
		alloc, err := nn.handleAllocate(AllocateArgs{File: "/f", Size: 10})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, alloc.Block.ID)
	}
	if _, err := nn.handleDelete(DeleteArgs{File: "/f"}); err != nil {
		t.Fatal(err)
	}
	if lost := beat(time.Second, nil); !slices.Equal(lost, ids) {
		t.Fatalf("first beat after the delete frees %v, want %v", lost, ids)
	}
	// That reply never arrived: the node dropped nothing and
	// acknowledges nothing, so its next beat must name the IDs again.
	again := beat(2*time.Second, nil)
	if !slices.Equal(again, ids) {
		t.Fatalf("beat after a lost reply frees %v, want %v again", again, ids)
	}
	// Acknowledged, they leave the queue for good.
	if rest := beat(3*time.Second, again); len(rest) != 0 || len(nn.freed) != 0 {
		t.Fatalf("after the acknowledgement the beat frees %v and the queue holds %v, want both empty", rest, nn.freed)
	}
}

func TestAllocateWithoutDataNodes(t *testing.T) {
	nn, err := StartNameNode("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Close()
	nnc, err := rpcnet.Dial(nn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nnc.Close()
	var alloc AllocateReply
	if err := nnc.Call("Allocate", AllocateArgs{File: "/f", Size: 10}, &alloc); err == nil {
		t.Error("allocation with no datanodes should fail")
	}
	// Readers pre-size their buffers from the recorded size: one no
	// block can have is refused before it is recorded.
	for _, size := range []int64{-1, rpcnet.MaxFrame + 1} {
		err := nnc.Call("Allocate", AllocateArgs{File: "/f", Size: size}, &alloc)
		if err == nil || !strings.Contains(err.Error(), "block size") {
			t.Errorf("Allocate with size %d = %v, want a block-size error", size, err)
		}
	}
}
