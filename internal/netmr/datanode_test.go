package netmr

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"hetmr/internal/rpcnet"
)

// startLoneDataNode boots a NameNode and one DataNode of cfg, and
// reports each block buffer the node's store hands back to the pool on
// released.
func startLoneDataNode(t *testing.T, cfg Config) (dn *DataNode, released <-chan []byte) {
	t.Helper()
	nn, err := StartNameNode("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nn.Close() })
	dn, err = StartDataNode("127.0.0.1:0", nn.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dn.Close() })
	ch := make(chan []byte, 8) // more than any test here releases: the store never waits on it
	dn.store.OnRelease(func(p []byte) {
		ch <- p
		rpcnet.Recycle(p)
	})
	return dn, ch
}

// slowConn is a peer that speaks rpcnet's frame layout by hand
// (ARCHITECTURE "The wire layer") and reads a frame's tail only when
// told to, so the DataNode's write of it stays blocked until then.
type slowConn struct {
	t    *testing.T
	conn net.Conn
	tail int // tail bytes of the frame whose header was read last
}

// hello writes this side's magic and reads the peer's.
func (c *slowConn) hello() {
	c.t.Helper()
	if _, err := c.conn.Write([]byte("hmr4")); err != nil {
		c.t.Fatal(err)
	}
	var magic [4]byte
	if _, err := io.ReadFull(c.conn, magic[:]); err != nil || string(magic[:]) != "hmr4" {
		c.t.Fatalf("hello %q, err %v", magic, err)
	}
}

// call sends one tail-less request frame.
func (c *slowConn) call(method string, args any) {
	c.t.Helper()
	body, err := rpcnet.Marshal(args)
	if err != nil {
		c.t.Fatal(err)
	}
	var hdr [19]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(15+len(method)+len(body)))
	binary.BigEndian.PutUint64(hdr[4:12], 1)
	binary.BigEndian.PutUint16(hdr[13:15], uint16(len(method)))
	if _, err := c.conn.Write(append(append(hdr[:], method...), body...)); err != nil {
		c.t.Fatal(err)
	}
}

// head reads a frame's header, meta and body, leaving its tail unread.
func (c *slowConn) head() {
	c.t.Helper()
	var hdr [19]byte
	if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
		c.t.Fatal(err)
	}
	n := int(binary.BigEndian.Uint32(hdr[0:4]))
	c.tail = int(binary.BigEndian.Uint32(hdr[15:19]))
	if _, err := io.CopyN(io.Discard, c.conn, int64(n-15-c.tail)); err != nil {
		c.t.Fatal(err)
	}
}

// rest reads the tail of the frame head left unread.
func (c *slowConn) rest() []byte {
	c.t.Helper()
	tail := make([]byte, c.tail)
	if _, err := io.ReadFull(c.conn, tail); err != nil {
		c.t.Fatal(err)
	}
	return tail
}

// TestLentBlockOutlivesItsDrop: a block dropped (a free on the beat) or
// replaced (a retried Put of its ID) while a Get or Replicate reply is
// still writing it to a slow reader reaches the reader intact, and its
// buffer goes back to the pool only once that write has ended. In race
// builds the pool poisons what it gets back, so an early return reads
// as poison too.
func TestLentBlockOutlivesItsDrop(t *testing.T) {
	// Far more than loopback buffers while the reader reads nothing: the
	// reply's write stays blocked until the test reads the tail.
	const size = 8 << 20
	block := make([]byte, size)
	for i := range block {
		block[i] = byte(i*7 + i>>13)
	}
	for _, tc := range []struct {
		name      string
		replicate bool // the lend is a Replicate push, not a Get reply
		reput     bool // the block is replaced, not deleted
	}{
		{name: "get-delete"},
		{name: "get-reput", reput: true},
		{name: "replicate-delete", replicate: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dn, released := startLoneDataNode(t, Config{Heartbeat: time.Second})
			c, err := rpcnet.Dial(dn.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			put := func(data []byte) {
				t.Helper()
				if err := c.CallTail("Put", PutArgs{ID: 1}, data, nil, dataCallTimeout, nil); err != nil {
					t.Fatal(err)
				}
			}
			put(block)

			var reader *slowConn
			replicated := make(chan error, 1)
			if tc.replicate {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				go func() {
					_, err := dn.handleReplicate(ReplicateArgs{ID: 1, Target: ln.Addr().String()})
					replicated <- err
				}()
				conn, err := ln.Accept()
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				reader = &slowConn{t: t, conn: conn}
				reader.hello()
			} else {
				conn, err := net.Dial("tcp", dn.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				reader = &slowConn{t: t, conn: conn}
				reader.hello()
				reader.call("Get", GetArgs{ID: 1})
			}
			reader.head()
			if reader.tail != size {
				t.Fatalf("frame carries a %d-byte tail, want %d", reader.tail, size)
			}

			if tc.reput {
				put(bytes.Repeat([]byte{0x5A}, size))
			} else {
				dn.store.Delete(1)
			}
			select {
			case <-released:
				t.Fatal("the block's buffer went back to the pool while a reply was still writing it")
			case <-time.After(50 * time.Millisecond):
			}
			if got := reader.rest(); !bytes.Equal(got, block) {
				t.Fatal("the reader got other bytes than the block it asked for")
			}
			if tc.replicate {
				reader.conn.Close() // no reply: the push fails, and ends
				if err := <-replicated; err == nil {
					t.Fatal("a push whose target hung up reported success")
				}
			}
			select {
			case p := <-released:
				if len(p) != size {
					t.Fatalf("released a %d-byte buffer, want the %d-byte block", len(p), size)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the dropped block's buffer never went back to the pool")
			}
			if tc.reput {
				var n int
				err := c.CallTail("Get", GetArgs{ID: 1}, nil, nil, dataCallTimeout, func(tail []byte) error {
					n = bytes.Count(tail, []byte{0x5A})
					return nil
				})
				if err != nil || n != size {
					t.Fatalf("after the re-put Get reads %d of %d new bytes, err %v", n, size, err)
				}
			}
		})
	}
}

// TestSpilledBlockGoesBackToThePool: under a SpillMem watermark a Put
// whose block goes to disk hands its kept frame buffer back at once,
// while one that stays in memory keeps it.
func TestSpilledBlockGoesBackToThePool(t *testing.T) {
	const size = 256 << 10
	dn, released := startLoneDataNode(t, Config{SpillMem: size, SpillDir: t.TempDir()})
	c, err := rpcnet.Dial(dn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	block := bytes.Repeat([]byte{7}, size)
	for id := int64(1); id <= 2; id++ {
		if err := c.CallTail("Put", PutArgs{ID: id}, block, nil, dataCallTimeout, nil); err != nil {
			t.Fatal(err)
		}
	}
	if dn.SpilledBytes() != size {
		t.Fatalf("spilled %d bytes, want the second block's %d", dn.SpilledBytes(), size)
	}
	select {
	case p := <-released:
		if len(p) != size {
			t.Fatalf("handed back %d bytes, want the spilled %d-byte block", len(p), size)
		}
	default:
		t.Fatal("the spilled block's buffer did not go back to the pool")
	}
	select {
	case <-released:
		t.Fatal("the resident block's buffer went back to the pool too")
	default:
	}
}

// waitBeatsParked waits until every DataNode of c has a beat parked at
// the NameNode.
func waitBeatsParked(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.NN.mu.Lock()
		parked := len(c.NN.parked)
		c.NN.mu.Unlock()
		if parked == len(c.DNs) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d DataNode beats parked after 5s", parked, len(c.DNs))
		}
		time.Sleep(time.Millisecond)
	}
}

// waitBlocksFreed waits until no DataNode of c stores a block, failing
// t if that takes longer than within after start.
func waitBlocksFreed(t *testing.T, c *Cluster, start time.Time, within time.Duration) {
	t.Helper()
	for left := -1; left != 0; {
		left = 0
		for _, dn := range c.DNs {
			left += dn.BlockCount()
		}
		if left > 0 && time.Since(start) > time.Second {
			t.Fatalf("%d replicas still stored a beat interval after the delete", left)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if took := time.Since(start); took > within {
		t.Errorf("frees reached every DataNode %v after the delete, want within %v", took, within)
	}
}

// TestFreesArriveWithinARoundTrip: with one-second beats a deleted
// file's replicas still leave every DataNode at once, because the
// NameNode answers each node's held beat the moment a free is queued
// for it; and neither daemon's Close waits out a parked beat.
func TestFreesArriveWithinARoundTrip(t *testing.T) {
	c, err := StartCluster(Config{Workers: 3, Slots: 1, BlockSize: 64 << 10, Heartbeat: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Client.WriteFile("/f", make([]byte, 1<<20), ""); err != nil {
		t.Fatal(err)
	}
	waitBeatsParked(t, c)
	start := time.Now()
	if err := c.Client.DeleteFile("/f"); err != nil {
		t.Fatal(err)
	}
	waitBlocksFreed(t, c, start, 50*time.Millisecond)

	waitBeatsParked(t, c)
	for _, daemon := range []struct {
		name  string
		close func() error
	}{{"DataNode", c.DNs[0].Close}, {"NameNode", c.NN.Close}} {
		start := time.Now()
		daemon.close()
		if took := time.Since(start); took > 250*time.Millisecond {
			t.Errorf("%s.Close took %v with a beat parked, want no wait for the 1s hold", daemon.name, took)
		}
	}
}

// TestBackToBackFreesArriveWithinARoundTrip deletes two files 10 ms
// apart on one-second beats: a DataNode acknowledges the first free
// with a beat of its own at once, which parks again in time for the
// second delete to answer it.
func TestBackToBackFreesArriveWithinARoundTrip(t *testing.T) {
	c, err := StartCluster(Config{Workers: 2, Slots: 1, BlockSize: 64 << 10, Heartbeat: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for _, name := range []string{"/a", "/b"} {
		if err := c.Client.WriteFile(name, make([]byte, 256<<10), ""); err != nil {
			t.Fatal(err)
		}
	}
	waitBeatsParked(t, c)
	if err := c.Client.DeleteFile("/a"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	if err := c.Client.DeleteFile("/b"); err != nil {
		t.Fatal(err)
	}
	waitBlocksFreed(t, c, start, 50*time.Millisecond)
}
