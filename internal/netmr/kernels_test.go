package netmr

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
	"hetmr/internal/testutil"
)

// These tests pin the payload format of the byte-stream kernels: a
// task output is the result bytes themselves, with no envelope.

// cutRun splits a Partition result into its partitions, the pieces
// FetchPartition serves.
func cutRun(run []byte, sizes []int64, err error) ([][]byte, error) {
	pieces := make([][]byte, len(sizes))
	for p, n := range sizes {
		pieces[p], run = run[:n:n], run[n:]
	}
	return pieces, err
}

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
	pieces, err := cutRun(kern.Partition(Task{}, block, 1))
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
	run, sizes, err := kern.Partition(Task{SplitKeys: [][]byte{top, top}}, block, parts)
	if err != nil {
		t.Fatal(err)
	}
	pieces, _ := cutRun(run, sizes, nil)
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
	if err := tts[0].store.put(jobID, mapOutputKey(0), run, sizes); err != nil {
		t.Fatal(err)
	}
	sorted := append([]byte(nil), block...)
	if err := kernels.SortRecords(sorted); err != nil {
		t.Fatal(err)
	}
	for p, want := range [][]byte{sorted, nil, nil} {
		fetched := &pieceStream{tt: tts[1], addr: tts[0].ShuffleAddr(),
			args: FetchPartitionArgs{JobID: jobID, MapTask: 0, Part: p}}
		if err := fetched.fill(); err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		merged, err := kern.Merge([]Piece{{fetched, fetched.size}, {bytes.NewReader(nil), 0}})
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		if !bytes.Equal(merged, want) {
			t.Fatalf("partition %d merged to %d bytes, want %d", p, len(merged), len(want))
		}
	}
}

// TestMapKernelsDoNotAliasTheirBlock holds every registered kernel to
// MapKernel's borrowing rule: a map task's block is lent from rpcnet's
// frame buffer and reused once the task returns, so no output may
// alias it. Each map variant — host and accelerated — runs on a copy
// of a block; the copy is then overwritten and every output must still
// read as it did on pristine bytes. A one-record block is in the table
// because it is where a sort can most cheaply return its input. Merge
// is held to the same rule over its pieces, which alias store memory
// or a remote piece's reused chunk buffer.
func TestMapKernelsDoNotAliasTheirBlock(t *testing.T) {
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	const records = 64
	text := zipfText(5, records*kernels.SortRecordBytes)
	keys := kernels.GenerateSortRecords(9, records)
	for i := 0; i < len(text); i += kernels.SortRecordBytes {
		copy(text[i:i+kernels.SortKeyBytes], keys[i:]) // a terasort key ahead of each record's words
	}
	aesArgs, err := rpcnet.Marshal(AESArgs{Key: []byte("alias-test-key!!"), IV: []byte("alias-test-iv!!!"), BlockBytes: int64(len(text))})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 2
	task := Task{TaskID: 1, Args: aesArgs, Samples: 1000, Seed: 3,
		SplitKeys: [][]byte{text[records/2*kernels.SortRecordBytes:][:kernels.SortKeyBytes]}}

	type variant struct {
		name string
		run  func(data []byte) ([][]byte, error)
	}
	builtin := []string{"sort", "aes-ctr", "wordcount", "pi"}
	var names []string
	for name := range kernelRegistry {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range builtin {
		if !slices.Contains(names, name) {
			t.Fatalf("built-in kernel %q is not registered", name)
		}
	}
	for _, name := range names {
		k := kernelRegistry[name]
		one := func(out []byte, err error) ([][]byte, error) { return [][]byte{out}, err }
		var variants []variant
		if k.Map != nil {
			variants = append(variants, variant{"Map", func(d []byte) ([][]byte, error) { return one(k.Map(task, d)) }})
		}
		if k.Partition != nil {
			variants = append(variants, variant{"Partition", func(d []byte) ([][]byte, error) { return cutRun(k.Partition(task, d, parts)) }})
		}
		if k.AccelMap != nil {
			variants = append(variants, variant{"AccelMap", func(d []byte) ([][]byte, error) { return one(k.AccelMap(dev, task, d)) }})
		}
		if k.AccelPartition != nil {
			variants = append(variants, variant{"AccelPartition", func(d []byte) ([][]byte, error) { return cutRun(k.AccelPartition(dev, task, d, parts)) }})
		}
		for _, v := range variants {
			for _, block := range [][]byte{text, text[:kernels.SortRecordBytes]} {
				lent := bytes.Clone(block)
				got, err := v.run(lent)
				if errors.Is(err, errAccelFallback) {
					continue // the host path runs this block
				}
				if err != nil {
					if slices.Contains(builtin, name) {
						t.Errorf("%s %s, %d-byte block: %v", name, v.name, len(block), err)
					}
					continue
				}
				// The outputs as they read while the block was pristine.
				want := make([][]byte, len(got))
				for p := range got {
					want[p] = bytes.Clone(got[p])
				}
				for i := range lent {
					lent[i] = 0xA5 // the frame buffer, reused for the next reply
				}
				for p := range want {
					if !bytes.Equal(got[p], want[p]) {
						t.Errorf("%s %s, %d-byte block: output %d changed when its input block was overwritten: it aliases the block",
							name, v.name, len(block), p)
					}
				}
			}
		}
		if k.Partition == nil || k.Merge == nil {
			continue
		}
		// Merge each partition of two map tasks' pieces, the lent bytes.
		half := len(text) / 2 / kernels.SortRecordBytes * kernels.SortRecordBytes
		var mapped [2][][]byte
		for m, blk := range [][]byte{text[:half], text[half:]} {
			if mapped[m], err = cutRun(k.Partition(task, blk, parts)); err != nil {
				t.Fatalf("%s Partition: %v", name, err)
			}
		}
		for p := 0; p < parts; p++ {
			var lent [][]byte
			var pieces []Piece
			for m := range mapped {
				l := bytes.Clone(mapped[m][p])
				lent = append(lent, l)
				pieces = append(pieces, Piece{bytes.NewReader(l), int64(len(l))})
			}
			got, err := k.Merge(pieces)
			if err != nil {
				t.Errorf("%s Merge, partition %d: %v", name, p, err)
				continue
			}
			want := bytes.Clone(got)
			for _, l := range lent {
				for i := range l {
					l[i] = 0xA5 // store memory reused, or a chunk buffer refilled
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s Merge, partition %d: output changed when its pieces were overwritten: it aliases them", name, p)
			}
		}
	}
}

// TestSortPartitionAllocationCeiling pins the sort map kernel's copy
// budget on a warm 4 MB block cut eight ways: the one sorted run the
// partitions alias, and next to nothing else. A packed-key index costs
// 0.32 B per input byte; a defensive copy of the block or
// per-partition appends would each add a whole byte.
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
		if _, err := cutRun(kern.Partition(task, block, parts)); err != nil {
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
	if perByte > 1.1 {
		t.Errorf("sort Partition allocates %.2f B per input byte, want <= 1.1", perByte)
	}
}

// zipfText is the benchmark-shaped wordcount text (testutil.ZipfText).
func zipfText(seed uint64, size int) []byte { return testutil.ZipfText(seed, size) }

// TestWordCountPartitionAllocationCeiling holds the wordcount map
// kernel, host and accelerated, on a 64 KB block — the small job's
// path — and on a 1 MiB one, cut four ways, by the median of warm
// calls. The host path counts in the table a tracker's slot lends it
// (Task.words), the accelerated one in the device's own tables, so
// either allocates little beyond its runs: a fresh table per task reads
// about 1.2 (64 KB) and 0.3 (1 MiB) B per input byte more. The device
// carves spans onto whichever SPE claims them first, so its tables
// keep growing for a few calls, and single calls spread: the median
// of several does not.
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
		size    int
		accel   bool
		ceiling float64
	}{
		{64 << 10, false, 0.4},
		{64 << 10, true, 0.5},
		{1 << 20, false, 0.12},
		{1 << 20, true, 0.15},
	} {
		block := zipfText(7, tc.size)
		task := Task{words: new(kernels.WordTable)}
		const warmups, calls = 3, 7
		var perCall []float64
		for i := 0; i < warmups+calls; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if tc.accel {
				_, _, err = kern.AccelPartition(dev, task, block, 4)
			} else {
				_, _, err = kern.Partition(task, block, 4)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if i >= warmups {
				perCall = append(perCall, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(block)))
			}
		}
		slices.Sort(perCall)
		perByte := perCall[calls/2]
		t.Logf("%d-byte block, accel %v: %.2f B per input byte (median; %.2f-%.2f; ceiling %.2f)",
			tc.size, tc.accel, perByte, perCall[0], perCall[calls-1], tc.ceiling)
		if perByte >= tc.ceiling {
			t.Errorf("%d-byte block, accel %v: wordcount Partition allocates %.2f B per input byte, want < %.2f",
				tc.size, tc.accel, perByte, tc.ceiling)
		}
	}
}

// TestWordCountAccelPartitionDecodesLikeHost holds the wordcount
// kernel's two Partition variants to one result on a Zipf block: each
// partition's run decodes to the same counts, and together they hold
// the block's words.
func TestWordCountAccelPartitionDecodesLikeHost(t *testing.T) {
	kern, err := lookupKernel("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	block := zipfText(11, 256<<10)
	const parts = 4
	host, err := cutRun(kern.Partition(Task{}, block, parts))
	if err != nil {
		t.Fatal(err)
	}
	accel, err := cutRun(kern.AccelPartition(dev, Task{}, block, parts))
	if err != nil {
		t.Fatal(err)
	}
	if len(host) != parts || len(accel) != parts {
		t.Fatalf("host made %d partitions, accel %d, want %d", len(host), len(accel), parts)
	}
	words := 0
	for p := range host {
		h, a := runCounts(t, host[p]), runCounts(t, accel[p])
		if !maps.Equal(h, a) {
			t.Errorf("partition %d: host run of %d words, accel %d, not equal", p, len(h), len(a))
		}
		words += len(h)
	}
	if want := len(kernels.WordCount(block)); words != want {
		t.Errorf("partitions hold %d distinct words, the block %d", words, want)
	}
}

// TestWordCountAccelPartitionBytesEqualHost holds the two Partition
// variants to the same bytes, on a Zipf block and on one whose words
// straddle every SPE block boundary.
func TestWordCountAccelPartitionBytesEqualHost(t *testing.T) {
	kern, err := lookupKernel("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	for name, block := range map[string][]byte{"zipf": zipfText(13, 256<<10), "straddling": straddlingText()} {
		assertAccelPartitionIsHosts(t, kern, dev, name, block, 4)
	}
}

// TestAccelDeviceReusesItsWordTables counts one block on a device,
// then a block with none of its words: the second task's runs must
// equal the host path's, so nothing of the first survives in the
// tables the device keeps. Two goroutines then share the device, as a
// tracker's map slots do.
func TestAccelDeviceReusesItsWordTables(t *testing.T) {
	kern, err := lookupKernel("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewCellDevice()
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte("alpha beta gamma "), 4_000)
	b := zipfText(17, 64<<10)
	if _, err := cutRun(kern.AccelPartition(dev, Task{}, a, 3)); err != nil {
		t.Fatal(err)
	}
	runs, err := cutRun(kern.AccelPartition(dev, Task{}, b, 3))
	if err != nil {
		t.Fatal(err)
	}
	for p, run := range runs {
		counts := runCounts(t, run)
		for _, w := range []string{"alpha", "beta", "gamma"} {
			if n, ok := counts[w]; ok {
				t.Errorf("partition %d of block B counts %q %d times: block A's table was not reset", p, w, n)
			}
		}
	}
	assertAccelPartitionIsHosts(t, kern, dev, "block B", b, 3)

	var wg sync.WaitGroup
	for i, block := range [][]byte{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				assertAccelPartitionIsHosts(t, kern, dev, fmt.Sprintf("goroutine %d", i), block, 3)
			}
		}()
	}
	wg.Wait()
}

// assertAccelPartitionIsHosts fails t unless the accelerated Partition
// of block returns the host Partition's bytes.
func assertAccelPartitionIsHosts(t *testing.T, kern MapKernel, dev *AccelDevice, name string, block []byte, parts int) {
	t.Helper()
	host, err := cutRun(kern.Partition(Task{}, block, parts))
	if err != nil {
		t.Error(err)
		return
	}
	accel, err := cutRun(kern.AccelPartition(dev, Task{}, block, parts))
	if err != nil {
		t.Error(err)
		return
	}
	for p := range host {
		if !bytes.Equal(host[p], accel[p]) {
			t.Errorf("%s, partition %d: accelerated run of %d bytes differs from the host's %d", name, p, len(accel[p]), len(host[p]))
		}
	}
}

// runCounts decodes a word run — a partition's, or a word count's
// result — failing t on a malformed one or one whose words are not in
// strictly ascending byte order.
func runCounts(t testing.TB, run []byte) map[string]int64 {
	t.Helper()
	counts := make(map[string]int64)
	if err := kernels.EachWordRun(run, func(w []byte, n int64) { counts[string(w)] += n }); err != nil {
		t.Fatalf("word run: %v", err)
	}
	return counts
}

// decodeWordRun is the run format spelled out over bytes: the counts,
// and whether run is well formed (every word non-empty, whole and
// after the one before it).
func decodeWordRun(run []byte) (map[string]int64, bool) {
	counts := make(map[string]int64)
	var prev []byte
	for len(run) > 0 {
		l, k := binary.Uvarint(run)
		if k <= 0 || l == 0 || l > uint64(len(run)-k) {
			return nil, false
		}
		word, rest := run[k:k+int(l)], run[k+int(l):]
		n, m := binary.Uvarint(rest)
		if m <= 0 || prev != nil && bytes.Compare(prev, word) >= 0 {
			return nil, false
		}
		counts[string(word)] += int64(n)
		prev, run = word, rest[m:]
	}
	return counts, true
}

// FuzzWordRuns runs a word count through the run format end to end:
// text cut into 1 to 8 blocks, each partitioned by both map variants
// (which must agree byte for byte), each partition's pieces merged and
// the merged runs reduced, against a map-based count of the blocks.
// extra, when not empty, joins partition 0's merge as one more piece:
// a well-formed run adds its counts, anything else fails the merge.
func FuzzWordRuns(f *testing.F) {
	dev, err := NewCellDevice()
	if err != nil {
		f.Fatal(err)
	}
	kern, err := lookupKernel("wordcount")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("the Cell, the SPE; the cell!"), uint8(7<<3|2), []byte(nil))       // empty partitions
	f.Add([]byte("a "+strings.Repeat("Long", 40)+" b"), uint8(3<<3|1), []byte(nil)) // a 160-byte word
	f.Add([]byte("cell spe zz"), uint8(1<<3), binary.AppendUvarint([]byte("\x04cell"), 3<<31))
	f.Add([]byte("spe"), uint8(0), []byte("\x03spe\x01\x03cel\x01")) // out of order
	f.Add([]byte("spe"), uint8(0), []byte("\x05cell\x01"))           // truncated
	f.Add(zipfText(5, 6_000), uint8(5<<3|7), []byte(nil))
	f.Fuzz(func(t *testing.T, text []byte, shape uint8, extra []byte) {
		blocks, parts := int(shape&7)+1, int(shape>>3&7)+1
		want := make(map[string]int64)
		shares := make([][][]byte, parts) // each partition's runs, in block order
		for b := range blocks {
			block := text[b*len(text)/blocks : (b+1)*len(text)/blocks]
			for _, w := range bytes.FieldsFunc(block, func(r rune) bool { return r >= utf8.RuneSelf || !kernels.IsWordByte(byte(r)) }) {
				want[strings.ToLower(string(w))]++
			}
			runs, err := cutRun(kern.Partition(Task{}, block, parts))
			if err != nil {
				t.Fatal(err)
			}
			accel, err := cutRun(kern.AccelPartition(dev, Task{}, block, parts))
			if err != nil && !errors.Is(err, errAccelFallback) {
				t.Fatal(err)
			}
			for p, run := range runs {
				if err == nil && !bytes.Equal(accel[p], run) {
					t.Fatalf("block %d, partition %d: accelerated run differs from the host's", b, p)
				}
				shares[p] = append(shares[p], run)
			}
		}
		merge := func(runs [][]byte) ([]byte, error) {
			var pieces []Piece
			for _, run := range runs {
				pieces = append(pieces, Piece{bytes.NewReader(run), int64(len(run))})
			}
			return kern.Merge(pieces)
		}
		if len(extra) > 0 {
			merged, err := merge(append(slices.Clone(shares[0]), extra))
			counts, ok := decodeWordRun(extra)
			if ok != (err == nil) {
				t.Fatalf("Merge with an extra piece well formed %v: err = %v", ok, err)
			}
			if ok {
				shares[0] = [][]byte{merged}
				for w, n := range counts {
					want[w] += n
				}
			}
		}
		var partials [][]byte
		for p := range shares {
			merged, err := merge(shares[p])
			if err != nil {
				t.Fatalf("partition %d: %v", p, err)
			}
			partials = append(partials, merged)
		}
		raw, err := kern.Reduce(partials)
		if err != nil {
			t.Fatal(err)
		}
		got := runCounts(t, raw) // fails unless raw is one strictly ascending run
		if !maps.Equal(got, want) {
			t.Fatalf("reduced %d distinct words, the oracle %d", len(got), len(want))
		}
	})
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
