package netmr

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetmr/internal/rpcnet"
)

// Reliability behaviours around daemon death: replicated block reads,
// fast task-failure reporting, graceful tracker drain, and a Wait that
// honours its deadline against a hung JobTracker.

func init() {
	// A kernel whose map always fails — the poisoned task the
	// MaxAttempts exhaustion test feeds the cluster.
	RegisterKernel("poison", MapKernel{
		Map: func(Task, []byte) ([]byte, error) {
			return nil, errors.New("poisoned task")
		},
		Reduce: func([][]byte) ([]byte, error) { return nil, nil },
	})
}

// TestShortReplicaIsAFailedRead: a replica that answers Get with fewer
// bytes than the block's recorded size has not served the block. The
// read moves on to the next replica, and with none left it fails naming
// the block — a truncated input would silently shorten an AES output
// and drop a sort's trailing records. An error from use, the kernel's
// own, is no replica's fault: it comes back at once, not retried.
func TestShortReplicaIsAFailedRead(t *testing.T) {
	block := bytes.Repeat([]byte("0123456789"), 100)
	stub := func(answer []byte) string {
		srv, err := rpcnet.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		handleTail(srv, "Get", func(GetArgs, *rpcnet.Tail) (GetReply, rpcnet.Reply, error) {
			return GetReply{}, rpcnet.Reply{Bytes: answer}, nil
		})
		return srv.Addr()
	}
	short, full := stub(block[:len(block)-100]), stub(block)
	wire := newConnCache()
	defer wire.close()
	blk := BlockInfo{ID: 7, Size: int64(len(block))}
	var got []byte
	uses := 0
	keep := func(b []byte) error {
		uses++
		got = bytes.Clone(b)
		return nil
	}

	served, err := readBlockFrom(wire, blk, []string{short, full}, keep)
	if err != nil || served != full || !bytes.Equal(got, block) {
		t.Fatalf("short replica first: served by %q (full is %q), %d bytes, err %v", served, full, len(got), err)
	}
	uses = 0
	served, err = readBlockFrom(wire, blk, []string{short}, keep)
	if err == nil || !strings.Contains(err.Error(), "block 7") || served != "" || uses != 0 {
		t.Fatalf("short replica alone: served by %q, use ran %d times, err %v; want an error naming block 7", served, uses, err)
	}

	errKernel := errors.New("kernel failed")
	served, err = readBlockFrom(wire, blk, []string{full, full}, func([]byte) error {
		uses++
		return errKernel
	})
	if err != errKernel || served != full || uses != 1 {
		t.Fatalf("failing use: served by %q, use ran %d times, err %v; want its error once", served, uses, err)
	}
}

func TestReadFailoverAfterDataNodeDeath(t *testing.T) {
	c := startTestCluster(t, 3, 1024)
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := c.Client.WriteFile("/replicated", data, ""); err != nil {
		t.Fatal(err)
	}
	// Default replication is 2: killing any single DataNode between
	// the write and the read must leave every block readable.
	c.DNs[0].Close()
	got, err := c.Client.ReadFile("/replicated")
	if err != nil {
		t.Fatalf("read after DataNode death: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read corrupted data")
	}
}

func TestWriteFailoverAfterDataNodeDeath(t *testing.T) {
	c := startTestCluster(t, 3, 1024)
	// Kill a DataNode before writing: allocations naming it lose a
	// copy, the write itself survives, and the NameNode's pruned
	// replica lists keep every block readable.
	c.DNs[2].Close()
	data := make([]byte, 8_000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := c.Client.WriteFile("/degraded", data, ""); err != nil {
		t.Fatalf("write with a dead DataNode: %v", err)
	}
	got, err := c.Client.ReadFile("/degraded")
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded write corrupted data")
	}
	// The pruned replica lists never name the dead node.
	nnc, err := rpcnet.Dial(c.NN.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nnc.Close()
	var lookup LookupReply
	if err := nnc.Call("Lookup", LookupArgs{File: "/degraded"}, &lookup); err != nil {
		t.Fatal(err)
	}
	dead := c.DNs[2].Addr()
	for _, blk := range lookup.Blocks {
		for _, addr := range blk.Replicas {
			if addr == dead {
				t.Fatalf("block %d still lists the dead DataNode %s", blk.ID, dead)
			}
		}
	}
}

func TestMapTasksSurviveDataNodeDeath(t *testing.T) {
	c := startTestCluster(t, 3, 64)
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		sb.WriteString([]string{"aaa ", "bbb ", "ccc ", "ddd "}[i%4])
	}
	text := sb.String()
	if err := c.Client.WriteFile("/corpus", []byte(text), ""); err != nil {
		t.Fatal(err)
	}
	// Kill one DataNode before the job runs: every map task whose
	// primary replica died must fail over to the surviving copy.
	c.DNs[1].Close()
	result, err := submitAndWait(c.Client, JobSpec{
		Name: "wc-dn-death", Kernel: "wordcount", Input: "/corpus",
	}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	counts := runCounts(t, result)
	if counts["aaa"] != 100 || counts["ddd"] != 100 {
		t.Errorf("counts = %v, want 100 each", counts)
	}
}

func TestPoisonedTaskExhaustsAttemptsFast(t *testing.T) {
	// The tracker reports the kernel error on its next heartbeat; the
	// board re-issues immediately and the attempt cap turns the task
	// into a terminal job error — long before the 10s lease would
	// have expired even once.
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1024, Heartbeat: 10 * time.Millisecond,
		MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	start := time.Now()
	_, err = submitAndWait(c.Client, JobSpec{
		Name: "poison", Kernel: "poison", Samples: 1, NumTasks: 1,
	}, 8*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("poisoned job reported success")
	}
	if !strings.Contains(err.Error(), "max attempts") || !strings.Contains(err.Error(), "poisoned task") {
		t.Errorf("error %q does not name the attempt cap and the task error", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("failure took %v — reported by lease expiry, not by heartbeat", elapsed)
	}
}

func TestStopDrainsCompletedResults(t *testing.T) {
	// One tracker, one slow task in flight when the graceful Stop
	// arrives. Stop must wait the task out and deliver its result in a
	// final heartbeat instead of dropping it — the tracker is gone once
	// Stop returns, so with a single tracker a dropped result could never
	// be recomputed and the Wait below could not succeed.
	nn, jt := startMasters(t)
	tt, err := StartTaskTracker("drainer", jt.Addr(), "", 0, Config{Slots: 2, Heartbeat: 20 * time.Millisecond,
		TaskDelays: []time.Duration{300 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Stop()
	client, _ := NewClient(nn.Addr(), jt.Addr(), 1024)
	defer client.Close()
	id, err := client.Submit(JobSpec{Name: "pi-drain", Kernel: "pi", Samples: 1000, NumTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		tt.mu.Lock()
		defer tt.mu.Unlock()
		return tt.running > 0
	}, "task never started")
	tt.Stop()
	if _, err := waitResult(client, id, 2*time.Second); err != nil {
		t.Fatalf("job did not finish from the drained final heartbeat: %v", err)
	}
}

// muteMaster is a listener that accepts and reads but never replies —
// the hung master the call timeouts exist for.
func muteMaster(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(io.Discard, c)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestWaitHonoursDeadlineAgainstHungJobTracker(t *testing.T) {
	client, err := NewClient("unused", muteMaster(t), 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	_, err = waitResult(client, 0, 300*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Wait against a hung JobTracker reported success")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error %q is not the deadline error", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("Wait blocked %v past a 300ms deadline", elapsed)
	}
}

// TestControlCallsTimeOutAgainstMuteMaster pins that no control-plane
// call can wedge its caller: every client a daemon dials carries a
// default call timeout, so a master that accepts and never answers
// costs a timeout error, not a hang. (Shortened here; the default is
// dataCallTimeout.)
func TestControlCallsTimeOutAgainstMuteMaster(t *testing.T) {
	mute := muteMaster(t)
	client, err := NewClient(mute, mute, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.wire.timeout = 100 * time.Millisecond
	calls := map[string]func() error{
		"Submit": func() error {
			_, err := client.Submit(JobSpec{Name: "pi", Kernel: "pi", Samples: 10})
			return err
		},
		"WriteFrom": func() error {
			_, err := client.WriteFrom("/f", strings.NewReader("data"), "")
			return err
		},
		"ListJobs": func() error { _, err := client.ListJobs(""); return err },
		"Kill":     func() error { return client.Kill(0, "") },
	}
	for name, call := range calls {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Errorf("%s against a mute master: err = %v, want a timeout", name, err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s against a mute master still blocked after 3s", name)
		}
	}
}

// TestDataNodeCloseReturnsWhenNameNodeGoesMute: a NameNode that answers
// the first Register and then stops answering used to wedge the beat
// loop inside its call, and Close behind it, forever.
func TestDataNodeCloseReturnsWhenNameNodeGoesMute(t *testing.T) {
	srv, err := rpcnet.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := make(chan struct{})
	defer close(release) // unblock the handlers before srv.Close waits for them
	var beats atomic.Int32
	parked := make(chan struct{}, 1)
	srv.Handle("Register", func([]byte) (any, error) {
		if beats.Add(1) > 1 {
			select {
			case parked <- struct{}{}:
			default:
			}
			<-release
		}
		return RegisterReply{}, nil
	})
	defer func(d time.Duration) { heartbeatCallTimeout = d }(heartbeatCallTimeout)
	heartbeatCallTimeout = 100 * time.Millisecond
	dn, err := StartDataNode("127.0.0.1:0", srv.Addr(), Config{Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	<-parked // the first beat was answered; the loop's next one now hangs
	closed := make(chan struct{})
	go func() {
		dn.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("DataNode.Close still blocked 3s after its NameNode went mute")
	}
}
