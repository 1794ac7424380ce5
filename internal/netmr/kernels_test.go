package netmr

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
	"hetmr/internal/testutil"
)

// These tests pin the payload format of the byte-stream kernels: a
// task output is the result bytes themselves, with no envelope.

func TestSortMapOutputIsTheSortedBlock(t *testing.T) {
	kern, err := lookupKernel("sort")
	if err != nil {
		t.Fatal(err)
	}
	block := kernels.GenerateSortRecords(7, 50)
	want := append([]byte(nil), block...)
	if err := kernels.SortRecords(want); err != nil {
		t.Fatal(err)
	}
	// One partition, no split keys: the single piece is the map output.
	pieces, err := kern.Partition(Task{}, block, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 1 || len(pieces[0]) != len(block) {
		t.Fatalf("map output is %d pieces for a %d-byte block", len(pieces), len(block))
	}
	if !bytes.Equal(pieces[0], want) {
		t.Fatal("map output is not the sorted block")
	}
}

// TestSortPartitionPiecesAreRecordSlices range-partitions a block whose
// keys all fall below the first split key, so every partition but the
// first is empty, then carries the pieces the way a job does: into one
// tracker's store, out through FetchPartition from another tracker,
// into Merge.
func TestSortPartitionPiecesAreRecordSlices(t *testing.T) {
	kern, err := lookupKernel("sort")
	if err != nil {
		t.Fatal(err)
	}
	block := kernels.GenerateSortRecords(11, 40)
	top := bytes.Repeat([]byte{0xff}, kernels.SortKeyBytes)
	const parts = 3
	pieces, err := kern.Partition(Task{SplitKeys: [][]byte{top, top}}, block, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != parts {
		t.Fatalf("%d pieces for %d partitions", len(pieces), parts)
	}
	total := 0
	for _, p := range pieces {
		total += len(p)
	}
	if total != len(block) {
		t.Fatalf("pieces hold %d bytes of a %d-byte block", total, len(block))
	}
	if len(pieces[1]) != 0 || len(pieces[2]) != 0 {
		t.Fatalf("partitions above every key hold %d and %d bytes, want 0", len(pieces[1]), len(pieces[2]))
	}

	// Two trackers with no JobTracker behind them: nothing schedules
	// work on them or garbage-collects their stores.
	var tts [2]*TaskTracker
	for i := range tts {
		tt, err := StartTaskTracker(fmt.Sprintf("tt%d", i), "127.0.0.1:1", "", 0, Config{Slots: 1, Heartbeat: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer tt.Kill()
		tts[i] = tt
	}
	const jobID = 1
	for p, piece := range pieces {
		if err := tts[0].store.put(jobID, partKey{0, p}, piece); err != nil {
			t.Fatal(err)
		}
	}
	sorted := append([]byte(nil), block...)
	if err := kernels.SortRecords(sorted); err != nil {
		t.Fatal(err)
	}
	for p, want := range [][]byte{sorted, nil, nil} {
		fetched, err := tts[1].fetchPartition(tts[0].ShuffleAddr(),
			FetchPartitionArgs{JobID: jobID, MapTask: 0, Part: p})
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		merged, err := kern.Merge([][]byte{fetched, nil})
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		if !bytes.Equal(merged, want) {
			t.Fatalf("partition %d merged to %d bytes, want %d", p, len(merged), len(want))
		}
	}
}

// TestSortPartitionAllocationCeiling pins the sort map kernel's copy
// budget on a warm 4 MB block cut eight ways: the radix sort's two
// packed-key arrays (0.32 B per input byte) plus the one sorted run the
// partitions alias. A defensive copy of the block or per-partition
// appends would each add a whole byte per input byte.
func TestSortPartitionAllocationCeiling(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates; the ceiling holds only without it")
	}
	kern, err := lookupKernel("sort")
	if err != nil {
		t.Fatal(err)
	}
	block := kernels.GenerateSortRecords(25, 4<<20/kernels.SortRecordBytes)
	var sample [][]byte
	for off := 0; off < len(block); off += 100 * kernels.SortRecordBytes {
		sample = append(sample, block[off:off+kernels.SortKeyBytes])
	}
	const parts = 8
	task := Task{SplitKeys: kernels.SplitKeysFromSample(sample, parts)}
	partition := func() {
		if _, err := kern.Partition(task, block, parts); err != nil {
			t.Fatal(err)
		}
	}
	partition() // warm
	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		partition()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(calls*len(block))
	t.Logf("sort Partition allocates %.2f B per input byte", perByte)
	if perByte > 1.5 {
		t.Errorf("sort Partition allocates %.2f B per input byte, want <= 1.5", perByte)
	}
}

// zipfText returns size bytes of space-separated words drawn Zipf(1.2)
// from a fixed 5 000-word vocabulary of 3 to 12 lowercase letters: the
// shape of the benchmark's wordcount text, where a few words dominate
// and the tail keeps the table at a realistic size.
func zipfText(seed uint64, size int) []byte {
	vr := rand.New(rand.NewPCG(2009, 0))
	vocab := make([][]byte, 5000)
	for i := range vocab {
		w := []byte{byte('a' + i%26), byte('a' + i/26%26), byte('a' + i/676%26)}
		for extra := vr.IntN(10); extra > 0; extra-- {
			w = append(w, byte('a'+vr.IntN(26)))
		}
		vocab[i] = w
	}
	z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0)), 1.2, 1, uint64(len(vocab)-1))
	text := make([]byte, 0, size+16)
	for len(text) < size {
		text = append(text, vocab[z.Uint64()]...)
		text = append(text, ' ')
	}
	return text[:size]
}

// TestWordCountPartitionAllocationCeiling holds the wordcount map
// kernel, host and accelerated, under the bytes per input byte the
// string-per-occurrence kernel allocated on a 64 KB block — the small
// job's path — and on a 1 MiB one, cut four ways. The parent figures
// below are the lowest that kernel read in this loop. The table
// allocates per distinct word, so a per-occurrence string or a
// whole-block map would cross them.
func TestWordCountPartitionAllocationCeiling(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates; the ceiling holds only without it")
	}
	kern, err := lookupKernel("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		size          int
		accel         bool
		parentPerByte float64
	}{
		{64 << 10, false, 5.64},
		{64 << 10, true, 10.6},
		{1 << 20, false, 2.25},
		{1 << 20, true, 6.4},
	} {
		block := zipfText(7, tc.size)
		partition := func() {
			var err error
			if tc.accel {
				_, err = kern.AccelPartition(dev, Task{}, block, 4)
			} else {
				_, err = kern.Partition(Task{}, block, 4)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		partition() // warm
		const calls = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			partition()
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(calls*len(block))
		t.Logf("%d-byte block, accel %v: %.2f B per input byte (parent %.2f)", tc.size, tc.accel, perByte, tc.parentPerByte)
		if perByte >= tc.parentPerByte {
			t.Errorf("%d-byte block, accel %v: wordcount Partition allocates %.2f B per input byte, want < %.2f",
				tc.size, tc.accel, perByte, tc.parentPerByte)
		}
	}
}

func TestAESMapOutputIsTheCiphertext(t *testing.T) {
	kern, err := lookupKernel("aes-ctr")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	key, iv := []byte("raw-format-key!!"), []byte("raw-format-iv!!!")
	const blockBytes = 10_000 // a multiple of the AES block: task offsets stay counter-aligned
	args, err := rpcnet.Marshal(AESArgs{Key: key, IV: iv, BlockBytes: blockBytes})
	if err != nil {
		t.Fatal(err)
	}
	file := streamCorpus(3 * blockBytes)
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(file))
	cipher.NewCTR(blk, iv).XORKeyStream(want, file)

	var host, accel [][]byte
	for id := 0; id < 3; id++ {
		task := Task{TaskID: id, Args: args}
		data := file[id*blockBytes : (id+1)*blockBytes]
		h, err := kern.Map(task, data)
		if err != nil {
			t.Fatal(err)
		}
		a, err := kern.AccelMap(dev, task, data)
		if err != nil {
			t.Fatal(err)
		}
		host, accel = append(host, h), append(accel, a)
	}
	for name, outs := range map[string][][]byte{"Map": host, "AccelMap": accel} {
		// The job's result is the task outputs concatenated in task order.
		if whole := bytes.Join(outs, nil); !bytes.Equal(whole, want) {
			t.Errorf("%s outputs do not concatenate to the stdlib CTR ciphertext", name)
		}
	}
}
