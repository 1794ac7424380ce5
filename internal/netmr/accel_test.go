package netmr

import (
	"bytes"
	"errors"
	"maps"
	"strings"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// The accelerator contract: every offloaded kernel variant must be
// bit-identical to its host path, the cluster must expose its device
// profile, and the JobTracker's device-affinity pass must steer
// accelerated work toward accelerated trackers without ever idling a
// host tracker.

func TestDevicePiBitIdentical(t *testing.T) {
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed    uint64
		samples int64
	}{
		{2009, 100_000}, // many samples per SPE
		{7, 8},          // exactly one per SPE
		{7, 3},          // fewer samples than SPEs
		{7, 1},
		{7, 0},
		{42, 100_003}, // remainder spread over early SPEs
	} {
		want := kernels.CountInside(tc.seed, tc.samples)
		got, err := dev.CountInside(tc.seed, tc.samples)
		if err != nil {
			t.Fatalf("seed %d n %d: %v", tc.seed, tc.samples, err)
		}
		if got != want {
			t.Errorf("seed %d n %d: device counted %d, host %d", tc.seed, tc.samples, got, want)
		}
	}
}

func TestDeviceCTRBitIdentical(t *testing.T) {
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	c, err := kernels.NewCipher([]byte("accelerated-key!"))
	if err != nil {
		t.Fatal(err)
	}
	iv := []byte("accelerated-iv!!")
	data := make([]byte, 10_000) // crosses several 4KB SPE blocks, odd tail
	for i := range data {
		data[i] = byte(i * 31)
	}
	for _, base := range []int64{0, 5000, 64_000} {
		want := make([]byte, len(data))
		kernels.CTRStream(c, iv, base, want, data)
		got, err := dev.CTRStream(c, iv, base, data)
		if err != nil {
			t.Fatalf("base %d: %v", base, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("base %d: device ciphertext differs from host", base)
		}
	}
}

// TestDeviceWordCountBitIdentical runs the offload over a 1 MiB Zipf
// block — 256 sub-blocks claimed by eight SPEs, each table growing
// across its claims — and over a text whose words straddle every 4 KB
// boundary, against the host kernel over the whole block.
func TestDeviceWordCountBitIdentical(t *testing.T) {
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"zipf": zipfText(3, 1<<20), "straddling": straddlingText()} {
		want := kernels.WordCount(data)
		got, err := deviceCounts(dev, data)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: device counted %d distinct words, host %d", name, len(got), len(want))
		}
	}
	if got, err := deviceCounts(dev, nil); err != nil || len(got) != 0 {
		t.Errorf("empty input: %d words, err %v", len(got), err)
	}
}

// deviceCounts drains the table dev.WordCount lends into a map.
func deviceCounts(dev *AccelDevice, data []byte) (map[string]int64, error) {
	got := make(map[string]int64)
	err := dev.WordCount(data, func(table *kernels.WordTable) error {
		table.Each(func(w string, n int64) { got[w] = n })
		return nil
	})
	return got, err
}

// straddlingText is a text whose words straddle every 4 KB SPE block
// boundary.
func straddlingText() []byte {
	var b bytes.Buffer
	for i := 0; i < 2_000; i++ {
		b.WriteString("lorem ipsum becerra cell spe mapreduce word")
		b.WriteByte(byte("  \n\t."[i%5]))
	}
	return b.Bytes()
}

func TestDeviceWordCountDeclinesGiantWord(t *testing.T) {
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	// One "word" larger than the sub-block buffer cannot be carved at
	// a separator: the device must decline, not overrun or split.
	giant := bytes.Repeat([]byte("x"), 8_000)
	if _, err := deviceCounts(dev, giant); !errors.Is(err, errAccelFallback) {
		t.Fatalf("giant word: err = %v, want errAccelFallback", err)
	}
}

// FuzzAccelWordCount holds the offloaded wordcount to the host kernel
// on arbitrary bytes: the same counts exactly, and a decline only when
// some word is longer than the sub-block slack (the one input the
// separator-aligned carving cannot place in a local-store buffer).
func FuzzAccelWordCount(f *testing.F) {
	dev, err := NewCellDevice()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(""))
	f.Add([]byte("The cell, the SPE; the cell!"))
	f.Add(zipfText(5, 6_000))
	f.Add(append(bytes.Repeat([]byte("ab "), 1500), bytes.Repeat([]byte("z"), 3000)...))
	f.Add(append(bytes.Repeat([]byte("w"), 4090), " tail"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := deviceCounts(dev, data)
		if errors.Is(err, errAccelFallback) {
			if longest := longestWord(data); longest <= wordCountSlack {
				t.Fatalf("declined with no word over the %d-byte slack (longest %d)", wordCountSlack, longest)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := kernels.WordCount(data); !maps.Equal(got, want) {
			t.Fatalf("device counted %d distinct words, host %d", len(got), len(want))
		}
	})
}

// longestWord is the length of the longest run of word bytes in data.
func longestWord(data []byte) int {
	longest, run := 0, 0
	for _, b := range data {
		if kernels.IsWordByte(b) {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
	}
	return longest
}

// TestClusterOffloadBitIdentical proves a fully-accelerated cluster
// and an all-host cluster produce identical job results, and that the
// accelerated one actually offloaded.
func TestClusterOffloadBitIdentical(t *testing.T) {
	run := func(kinds []string, mapper string) ([]byte, *Cluster, func()) {
		c, err := StartCluster(Config{Workers: 1, Slots: 2, BlockSize: 1024, Heartbeat: 5 * time.Millisecond,
			Devices: kinds})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := submitAndWait(c.Client, JobSpec{
			Name: "pi-accel", Kernel: "pi", Samples: 40_000, NumTasks: 4, Mapper: mapper,
		}, 30*time.Second)
		if err != nil {
			c.Shutdown()
			t.Fatal(err)
		}
		return raw, c, c.Shutdown
	}

	refRaw, refClus, stopRef := run(nil, MapperJava)
	defer stopRef()
	accRaw, accClus, stopAcc := run([]string{DeviceCell}, MapperCell)
	defer stopAcc()

	var ref, acc PiResult
	if err := rpcnet.Unmarshal(refRaw, &ref); err != nil {
		t.Fatal(err)
	}
	if err := rpcnet.Unmarshal(accRaw, &acc); err != nil {
		t.Fatal(err)
	}
	if ref != acc {
		t.Errorf("offload changed the result: %+v vs %+v", acc, ref)
	}
	if n := accClus.TTs[0].AccelTasks(); n != 4 {
		t.Errorf("accelerated tracker offloaded %d tasks, want 4", n)
	}
	if n := refClus.TTs[0].AccelTasks(); n != 0 {
		t.Errorf("host tracker reports %d offloads, want 0", n)
	}
	if got := accClus.TTs[0].DeviceKind(); got != DeviceCell {
		t.Errorf("device kind %q, want %q", got, DeviceCell)
	}
}

// TestJavaMapperNeverOffloads pins the mapper knob: a cell-equipped
// tracker must keep the host path when the job asks for java.
func TestJavaMapperNeverOffloads(t *testing.T) {
	c, err := StartCluster(Config{Workers: 1, Slots: 2, BlockSize: 1024, Heartbeat: 5 * time.Millisecond,
		Devices: []string{DeviceCell}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	_, err = submitAndWait(c.Client, JobSpec{
		Name: "pi-java", Kernel: "pi", Samples: 10_000, NumTasks: 2, Mapper: MapperJava,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.TTs[0].AccelTasks(); n != 0 {
		t.Errorf("java job offloaded %d tasks, want 0", n)
	}
}

// TestStatusReportsDeviceProfile checks the cluster's device kinds
// surface through Status alongside the completion counts.
func TestStatusReportsDeviceProfile(t *testing.T) {
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1024, Heartbeat: 5 * time.Millisecond,
		Devices: []string{DeviceCell, DeviceHost}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	// The profile is built from heartbeats, and a job this small can end
	// before a tracker's first one: wait for both to have registered.
	waitFor(t, 5*time.Second, func() bool {
		trackers, err := c.Client.ListTrackers()
		return err == nil && len(trackers) == 2
	}, "trackers never registered")
	id, err := c.Client.Submit(JobSpec{
		Name: "pi-profile", Kernel: "pi", Samples: 20_000, NumTasks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitResult(c.Client, id, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := c.Client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"tracker-0": DeviceCell, "tracker-1": DeviceHost}
	if len(st.Devices) != len(want) {
		t.Fatalf("devices = %v, want %v", st.Devices, want)
	}
	for id, kind := range want {
		if st.Devices[id] != kind {
			t.Errorf("device[%s] = %q, want %q", id, st.Devices[id], kind)
		}
	}
}

// TestDeviceAffinityPass drives the JobTracker's grant passes directly
// over RPC: with one accelerated (cell-mapper) job and one host (java)
// job pending, an accelerated tracker's single slot gets the
// accelerated job's task even though the host job is older — and a
// host tracker with spare slots still drains the accelerated job's
// tasks rather than idling.
func TestDeviceAffinityPass(t *testing.T) {
	// Compute jobs never touch the NameNode, so a dead address is fine.
	jt, err := StartJobTracker("127.0.0.1:0", "127.0.0.1:1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	jtc, err := rpcnet.Dial(jt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer jtc.Close()

	submit := func(name, mapper string, tasks int) int64 {
		var reply SubmitReply
		err := jtc.Call("Submit", SubmitArgs{Spec: JobSpec{
			Name: name, Kernel: "pi", Samples: 1000, NumTasks: tasks, Mapper: mapper,
		}}, &reply)
		if err != nil {
			t.Fatal(err)
		}
		return reply.JobID
	}
	hostJob := submit("host-job", MapperJava, 2) // older
	cellJob := submit("cell-job", MapperCell, 2)

	heartbeat := func(tracker, device string, slots int) []Task {
		var reply HeartbeatReply
		err := jtc.Call("Heartbeat", HeartbeatArgs{
			TrackerID: tracker, Device: device, FreeSlots: slots,
		}, &reply)
		if err != nil {
			t.Fatal(err)
		}
		return reply.Tasks
	}

	// Affinity pass: one slot on an accelerated tracker takes the
	// (younger) accelerated job's task first.
	got := heartbeat("accel-1", DeviceCell, 1)
	if len(got) != 1 || got[0].JobID != cellJob {
		t.Fatalf("accel tracker granted %+v, want one task of job %d", got, cellJob)
	}
	// Symmetric: one slot on a host tracker takes the host job first.
	got = heartbeat("host-1", DeviceHost, 1)
	if len(got) != 1 || got[0].JobID != hostJob {
		t.Fatalf("host tracker granted %+v, want one task of job %d", got, hostJob)
	}
	// Fallback, not starvation: a host tracker with spare slots drains
	// the remaining pending tasks of both jobs.
	got = heartbeat("host-2", DeviceHost, 10)
	if len(got) != 2 {
		t.Fatalf("host tracker granted %d tasks, want the 2 remaining", len(got))
	}
	seen := map[int64]int{}
	for _, task := range got {
		seen[task.JobID]++
	}
	if seen[cellJob] != 1 || seen[hostJob] != 1 {
		t.Errorf("fallback grants by job = %v, want one task each", seen)
	}
}

// TestSubmitValidatesSpec pins the API-boundary checks: a negative
// reduce count (which would panic the partition hash mid-shuffle) and
// an unknown mapper variant fail the Submit RPC with clear messages.
func TestSubmitValidatesSpec(t *testing.T) {
	c := startTestCluster(t, 1, 1024)
	if err := c.Client.WriteFile("/neg", []byte("a b c"), ""); err != nil {
		t.Fatal(err)
	}
	_, err := c.Client.Submit(JobSpec{
		Name: "neg-reducers", Kernel: "wordcount", Input: "/neg", NumReducers: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "NumReducers") {
		t.Errorf("negative NumReducers: err = %v, want a NumReducers message", err)
	}
	_, err = c.Client.Submit(JobSpec{
		Name: "bad-mapper", Kernel: "pi", Samples: 10, NumTasks: 1, Mapper: "fortran",
	})
	if err == nil || !strings.Contains(err.Error(), "mapper") {
		t.Errorf("unknown mapper: err = %v, want a mapper message", err)
	}
}

// hostTaskDelay models the Java (PPE) path's per-task slowness for
// the skewed-cluster runs: one real CPU backs every goroutine in the
// functional testbed, so — exactly as in the live backend's
// heterogeneous example — the device-rate gap perfmodel calibrates
// (Cell plateau ~27x the PPE's on Pi) is enacted with the tracker
// delay knob, scaled down to test time. The accelerated trackers'
// offload is real: their tasks fan over SPE goroutines and skip the
// delay entirely, so completion counts measure the scheduler pulling
// proportionally more work to the faster device.
const hostTaskDelay = 12 * time.Millisecond

// skewedClusterCounts runs one Pi job on a 50%-accelerated cluster
// (slots 1, so completion counts track per-tracker task rate) and
// returns winning-task counts summed by device kind.
func skewedClusterCounts(t testing.TB, tasks int, samplesPerTask int64) (accel, host int, c *Cluster) {
	t.Helper()
	kinds := []string{DeviceCell, DeviceCell, DeviceHost, DeviceHost}
	c, err := StartCluster(Config{Workers: len(kinds), Slots: 1, BlockSize: 1024, Heartbeat: 2 * time.Millisecond,
		Devices: kinds, TaskDelays: []time.Duration{0, 0, hostTaskDelay, hostTaskDelay}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Client.Submit(JobSpec{
		Name: "pi-skew", Kernel: "pi",
		Samples: int64(tasks) * samplesPerTask, NumTasks: tasks,
	})
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	if _, err := waitResult(c.Client, id, 120*time.Second); err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	st, err := c.Client.Status(id)
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	for tracker, n := range st.Counts {
		switch st.Devices[tracker] {
		case DeviceCell:
			accel += n
		default:
			host += n
		}
	}
	if accel+host != tasks {
		c.Shutdown()
		t.Fatalf("counts %v sum to %d, want %d", st.Counts, accel+host, tasks)
	}
	return accel, host, c
}

// TestSkewedClusterOffload is the acceptance check (run under -race in
// CI's test matrix): on a 50%-accelerated cluster the accelerated
// trackers must complete more tasks than the host trackers.
func TestSkewedClusterOffload(t *testing.T) {
	if testing.Short() {
		t.Skip("compute-heavy skew run")
	}
	accel, host, c := skewedClusterCounts(t, 24, 100_000)
	defer c.Shutdown()
	if accel <= host {
		t.Errorf("accelerated trackers won %d tasks, host trackers %d; want accel > host", accel, host)
	}
	var offloaded int64
	for _, tt := range c.TTs {
		offloaded += tt.AccelTasks()
	}
	if offloaded == 0 {
		t.Error("no task attempt ran on an accelerator")
	}
}
