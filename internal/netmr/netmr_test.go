package netmr

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// startTestCluster boots a small cluster with fast heartbeats.
func startTestCluster(t *testing.T, workers int, blockSize int64) *Cluster {
	t.Helper()
	c, err := StartCluster(Config{Workers: workers, Slots: 2, BlockSize: blockSize, Heartbeat: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// collect submits a byte-stream kernel's job (sort, aes-ctr) and
// returns its collected result: the stored pieces, fetched from the
// trackers in task order.
func collect(t *testing.T, c *Client, spec JobSpec) []byte {
	t.Helper()
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.WaitOutput(id, 30*time.Second, &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestDFSWriteReadOverTCP(t *testing.T) {
	c := startTestCluster(t, 3, 1024)
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 11)
	}
	if err := c.Client.WriteFile("/f", data, ""); err != nil {
		t.Fatal(err)
	}
	got, err := c.Client.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip over TCP corrupted data")
	}
	// Blocks were spread across DataNodes (least-loaded placement).
	spread := 0
	for _, dn := range c.DNs {
		if dn.BlockCount() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("blocks landed on %d datanodes, expected spread", spread)
	}
	files, err := c.Client.ListFiles()
	if err != nil || len(files) != 1 || files[0] != "/f" {
		t.Errorf("ListFiles = %v, %v", files, err)
	}
}

func TestDFSPreferredPlacement(t *testing.T) {
	c := startTestCluster(t, 3, 512)
	preferred := c.DNs[1].Addr()
	if err := c.Client.WriteFile("/pin", make([]byte, 2048), preferred); err != nil {
		t.Fatal(err)
	}
	if got := c.DNs[1].BlockCount(); got != 4 {
		t.Errorf("preferred datanode holds %d blocks, want 4", got)
	}
}

func TestDFSMissingFile(t *testing.T) {
	c := startTestCluster(t, 1, 512)
	if _, err := c.Client.ReadFile("/nope"); err == nil {
		t.Error("read of missing file should fail")
	}
}

func TestWordCountJobOverTCP(t *testing.T) {
	c := startTestCluster(t, 3, 64)
	// 4-byte words so blocks never split words.
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		sb.WriteString([]string{"aaa ", "bbb ", "ccc ", "ddd "}[i%4])
	}
	text := sb.String()
	if err := c.Client.WriteFile("/corpus", []byte(text), ""); err != nil {
		t.Fatal(err)
	}
	result, err := submitAndWait(c.Client, JobSpec{
		Name: "wc", Kernel: "wordcount", Input: "/corpus",
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	counts := runCounts(t, result)
	want := kernels.WordCount([]byte(text))
	if len(counts) != len(want) {
		t.Fatalf("got %d words, want %d", len(counts), len(want))
	}
	for w, n := range want {
		if counts[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, counts[w], n)
		}
	}
}

func TestAESJobOverTCP(t *testing.T) {
	const blockSize = 4096
	c := startTestCluster(t, 2, blockSize)
	plain := make([]byte, 3*blockSize+100)
	for i := range plain {
		plain[i] = byte(i * 7)
	}
	if err := c.Client.WriteFile("/plain", plain, ""); err != nil {
		t.Fatal(err)
	}
	key := []byte("0123456789abcdef")
	iv := []byte("fedcba9876543210")
	args, err := rpcnet.Marshal(AESArgs{Key: key, IV: iv, BlockBytes: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	cipherText := collect(t, c.Client, JobSpec{
		Name: "enc", Kernel: "aes-ctr", Input: "/plain", Args: args,
	})
	cip, _ := kernels.NewCipher(key)
	want := make([]byte, len(plain))
	kernels.CTRStream(cip, iv, 0, want, plain)
	if !bytes.Equal(cipherText, want) {
		t.Fatal("distributed TCP encryption differs from sequential reference")
	}
}

func TestPiJobOverTCP(t *testing.T) {
	c := startTestCluster(t, 2, 1024)
	result, err := submitAndWait(c.Client, JobSpec{
		Name: "pi", Kernel: "pi", Samples: 400000, NumTasks: 8,
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var pi PiResult
	if err := rpcnet.Unmarshal(result, &pi); err != nil {
		t.Fatal(err)
	}
	if pi.Total != 400000 {
		t.Errorf("total = %d", pi.Total)
	}
	if math.Abs(pi.Pi-math.Pi) > 0.05 {
		t.Errorf("pi = %g", pi.Pi)
	}
}

func TestTrackerFailureReassignsOverTCP(t *testing.T) {
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1024, Heartbeat: 30 * time.Millisecond,
		TaskLease: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	// Kill one tracker immediately: its assigned tasks must migrate.
	c.TTs[0].Kill()
	result, err := submitAndWait(c.Client, JobSpec{
		Name: "pi-failover", Kernel: "pi", Samples: 100000, NumTasks: 6,
	}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var pi PiResult
	if err := rpcnet.Unmarshal(result, &pi); err != nil {
		t.Fatal(err)
	}
	if pi.Total != 100000 {
		t.Errorf("total = %d after failover", pi.Total)
	}
}

func TestSubmitValidation(t *testing.T) {
	c := startTestCluster(t, 1, 1024)
	if _, err := c.Client.Submit(JobSpec{Name: "bad", Kernel: "no-such-kernel", Samples: 1}); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := c.Client.Submit(JobSpec{Name: "bad", Kernel: "pi"}); err == nil {
		t.Error("job with neither input nor samples accepted")
	}
	if _, err := c.Client.Submit(JobSpec{Name: "bad", Kernel: "wordcount", Input: "/missing"}); err == nil {
		t.Error("missing input accepted")
	}
	// sort has no Map: as a compute job it would reach a tracker with
	// nothing to run.
	if _, err := c.Client.Submit(JobSpec{Name: "bad", Kernel: "sort", Samples: 10}); err == nil {
		t.Error("shuffle-only kernel accepted without an input file")
	}
}

func TestWaitTimeout(t *testing.T) {
	// A cluster with zero live trackers never finishes the job.
	nn, err := StartNameNode("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Close()
	jt, err := StartJobTracker("127.0.0.1:0", nn.Addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	client, _ := NewClient(nn.Addr(), jt.Addr(), 1024)
	id, err := client.Submit(JobSpec{Name: "stuck", Kernel: "pi", Samples: 10, NumTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitResult(client, id, 200*time.Millisecond); err == nil {
		t.Error("Wait should time out with no trackers")
	}
	if _, err := waitResult(client, 999, 50*time.Millisecond); err == nil {
		t.Error("Wait on unknown job should fail")
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient("x", "y", 0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := StartCluster(Config{Workers: 0, Slots: 1, BlockSize: 1024, Heartbeat: time.Millisecond}); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestEmptyFileWrite(t *testing.T) {
	c := startTestCluster(t, 1, 1024)
	if err := c.Client.WriteFile("/empty", nil, ""); err != nil {
		t.Fatal(err)
	}
	got, err := c.Client.ReadFile("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty file read %d bytes", len(got))
	}
}

func TestRegisterKernelDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate kernel registration should panic")
		}
	}()
	RegisterKernel("pi", MapKernel{})
}
