package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"hetmr/internal/kernels"
	"hetmr/internal/netmr"
)

// The conformance suite is the engine's contract: the same job, run on
// every registered backend, must produce identical results — the live
// in-process cluster, the calibrated simulation and the TCP-backed
// distributed runtime agree bit-for-bit on wordcount, sort, pi and
// encrypt. Every backend runs every kind, so an error from any of them
// (ErrUnsupported included) fails the suite.

// conformanceConfig is shared by every backend so block boundaries
// (and with them map-task decomposition) agree.
func conformanceConfig() Config {
	return Config{
		Workers:   3,
		BlockSize: 5_000, // multiple of the 100-byte sort record; splits inputs into many blocks
	}
}

// corpus builds a multi-block text with words straddling block
// boundaries — the conformance point is that every backend splits at
// the same offsets, not that the input is convenient.
func corpus() []byte {
	var b bytes.Buffer
	for i := 0; i < 3_000; i++ {
		fmt.Fprintf(&b, "word%03d lorem ipsum becerra cell spe mapreduce ", i%97)
	}
	return b.Bytes()
}

// tiedSortRecords is a sort input of 1 000 records over 32 distinct
// keys with every payload distinct: only a stable sort at every layer —
// the map run, the range cut, the merge — gives every backend the same
// order of equal keys, so this is what pins stability across backends.
func tiedSortRecords() []byte {
	const n, keys = 1_000, 32
	pool := kernels.GenerateSortRecords(32, keys)
	data := kernels.GenerateSortRecords(2010, n)
	for i := 0; i < n; i++ {
		rec := data[i*kernels.SortRecordBytes : (i+1)*kernels.SortRecordBytes]
		k := int(rec[kernels.SortKeyBytes]) % keys
		copy(rec, pool[k*kernels.SortRecordBytes:k*kernels.SortRecordBytes+kernels.SortKeyBytes])
		binary.BigEndian.PutUint32(rec[kernels.SortKeyBytes+1:], uint32(i))
	}
	return data
}

// longWordCorpus is a word count whose second block the accelerated
// path hands back to the host mid-job: a 2 000-byte word, longer than
// wordCountSlack lets an SPE sub-block stretch, crosses that block's
// first sub-block boundary. Its eight distinct words, the pieces cut at
// block boundaries included, leave three of eight reduce partitions
// empty.
func longWordCorpus() []byte {
	text := bytes.Repeat([]byte("cell spe ppe "), 2_000)
	copy(text[longWordBlock+3_500:], " "+strings.Repeat("w", 2_000)+" ")
	return text
}

const longWordBlock = 8 << 10

// conformanceCase is one job of the conformance table; name is its
// subtest name. tune, when set, adjusts conformanceConfig for the case
// in TestCrossBackendConformance.
type conformanceCase struct {
	name string
	job  *Job
	tune func(*Config)
}

func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{"wordcount", &Job{Kind: Wordcount, Input: corpus()}, nil},
		{"wordcount-long-word", &Job{Kind: Wordcount, Input: longWordCorpus()}, func(cfg *Config) {
			cfg.BlockSize, cfg.Reducers = longWordBlock, 8
		}},
		{"sort", &Job{Kind: Sort, Input: kernels.GenerateSortRecords(2009, 1_000)}, nil},
		{"sort-ties", &Job{Kind: Sort, Input: tiedSortRecords()}, nil},
		{"pi", &Job{Kind: Pi, Samples: 300_000, Tasks: 8, Seed: 2009}, nil},
		{"encrypt", &Job{
			Kind:  Encrypt,
			Input: corpus()[:20_000],
			Key:   []byte("conformance-key!"),
			IV:    []byte("conformance-iv!!"),
		}, nil},
	}
}

func runOn(t *testing.T, backend string, job *Job) *Result {
	t.Helper()
	return runOnConfig(t, backend, conformanceConfig(), job)
}

func runOnConfig(t *testing.T, backend string, cfg Config, job *Job) *Result {
	t.Helper()
	r, err := New(backend, cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", backend, err)
	}
	defer r.Close()
	res, err := r.Run(job)
	if err != nil {
		t.Fatalf("%s: %s: %v", backend, job.Kind, err)
	}
	return res
}

func TestCrossBackendConformance(t *testing.T) {
	backends := Backends()
	for _, c := range conformanceCases() {
		job, cfg := c.job, conformanceConfig()
		if c.tune != nil {
			c.tune(&cfg)
		}
		t.Run(c.name, func(t *testing.T) {
			ref := runOnConfig(t, backends[0], cfg, job)
			for _, backend := range backends[1:] {
				assertSameResult(t, job.Kind, backends[0], ref, backend, runOnConfig(t, backend, cfg, job))
			}
		})
	}
	t.Run("fetches", testFetchConformance)
	t.Run("net-result-paths", testNetResultPaths)
}

// testFetchConformance pins Result's block-fetch counters on a
// four-worker cluster, whose result must match conformanceConfig's
// three. On net every map task fetches its block exactly once (no
// speculation, one job on the cluster), so LocalReads + RemoteReads is
// the map-task count; live and sim fetch no block over the network and
// report zero.
func testFetchConformance(t *testing.T) {
	job := &Job{Kind: Sort, Input: kernels.GenerateSortRecords(2009, 1_000)}
	cfg := conformanceConfig()
	cfg.Workers = 4
	for _, backend := range []string{"live", "sim", "net"} {
		t.Run(backend, func(t *testing.T) {
			want := runOn(t, backend, job)
			got := runOnConfig(t, backend, cfg, job)
			if err := SameResult(job.Kind, want, got); err != nil {
				t.Fatalf("4 workers changed the result: %v", err)
			}
			var maps int64
			if backend == "net" {
				maps = (int64(len(job.Input)) + cfg.BlockSize - 1) / cfg.BlockSize
			}
			if n := got.LocalReads + got.RemoteReads; n != maps {
				t.Errorf("block fetches local %d + remote %d = %d, want %d (one per net map task)",
					got.LocalReads, got.RemoteReads, n, maps)
			}
		})
	}
}

// testNetResultPaths pins the net backend's byte results — collected
// from the trackers into Result.Bytes ("inline") or a Sink ("streamed",
// "sink") — against the live reference, whose sort hash-partitions in
// process where net range-partitions. The tiny sorts have more reducers than records, so some reduce
// partitions are empty.
func testNetResultPaths(t *testing.T) {
	bigSort := kernels.GenerateSortRecords(2009, 1_000)
	tinySort := kernels.GenerateSortRecords(12, 5)
	enc := &Job{Kind: Encrypt, Input: corpus()[:20_000],
		Key: []byte("conformance-key!"), IV: []byte("conformance-iv!!")}
	for _, tc := range []struct {
		name       string
		job        *Job
		tiny, sink bool
	}{
		{name: "sort-hash-inline", job: &Job{Kind: Sort, Input: bigSort}},
		{name: "sort-range-streamed", job: &Job{Kind: Sort, Input: bigSort}, sink: true},
		{name: "sort-hash-inline-empty-partitions", job: &Job{Kind: Sort, Input: tinySort}, tiny: true},
		{name: "sort-range-streamed-empty-partitions", job: &Job{Kind: Sort, Input: tinySort}, tiny: true, sink: true},
		{name: "encrypt-inline", job: enc},
		{name: "encrypt-sink", job: enc, sink: true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := conformanceConfig()
			if tc.tiny {
				cfg.BlockSize, cfg.Reducers = 200, 8 // 5 records over 3 maps and 8 reduces
			}
			// Live takes the block size and ignores the net-only knobs.
			want := runOnConfig(t, "live", Config{Workers: cfg.Workers, BlockSize: cfg.BlockSize}, tc.job)
			job := *tc.job
			var sunk bytes.Buffer
			if tc.sink {
				job.Sink = &sunk
			}
			got := runOnConfig(t, "net", cfg, &job)
			if tc.sink {
				if got.OutputBytes != int64(sunk.Len()) {
					t.Fatalf("OutputBytes %d, sink holds %d", got.OutputBytes, sunk.Len())
				}
				got.Bytes = sunk.Bytes()
			}
			if err := SameResult(job.Kind, want, got); err != nil {
				t.Fatalf("net differs from live: %v", err)
			}
		})
	}
}

// TestNetBulkBytesNeverCrossJobTracker pins the data-plane invariant:
// whatever the caller sets — no Sink, any reducer count, the inert
// RangePartition left false — a byte-stream job's result is collected
// from the trackers, so the task output bytes the JobTracker's
// heartbeats carry stay metadata-sized while megabytes of result come
// back equal to the live backend's.
func TestNetBulkBytesNeverCrossJobTracker(t *testing.T) {
	const size = 2_000_000
	enc := &Job{Kind: Encrypt, InputBytes: size, Key: []byte("conformance-key!")}
	sort := &Job{Kind: Sort, Input: kernels.GenerateSortRecords(2009, size/kernels.SortRecordBytes)}
	for _, tc := range []struct {
		reducers int
		jobs     []*Job
	}{
		{reducers: 4, jobs: []*Job{enc, sort}},
		{reducers: 1, jobs: []*Job{sort}},
	} {
		cfg := Config{Workers: 3, BlockSize: 250_000, Reducers: tc.reducers}
		r, err := New("net", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		jt := r.(interface{ Cluster() *netmr.Cluster }).Cluster().JT
		for _, job := range tc.jobs {
			want := runOnConfig(t, "live", cfg, job)
			before := jt.DataPlaneBytes()
			got, err := r.Run(job)
			if err != nil {
				t.Fatalf("reducers=%d %s: %v", tc.reducers, job.Kind, err)
			}
			if err := SameResult(job.Kind, want, got); err != nil {
				t.Fatalf("reducers=%d %s: net differs from live: %v", tc.reducers, job.Kind, err)
			}
			if n := jt.DataPlaneBytes() - before; n >= 4<<10 {
				t.Errorf("reducers=%d %s: %d task output bytes rode heartbeats for a %d-byte result, want < 4 KB",
					tc.reducers, job.Kind, n, len(got.Bytes))
			}
		}
	}
}

func assertSameResult(t *testing.T, kind Kind, refName string, ref *Result, name string, res *Result) {
	t.Helper()
	if err := SameResult(kind, ref, res); err != nil {
		t.Fatalf("%s vs %s on %s: %v", refName, name, kind, err)
	}
}

// TestSimReportsModelStats pins the simulated backend's second duty:
// every run must carry the calibrated model's metrics.
func TestSimReportsModelStats(t *testing.T) {
	r, err := New("sim", conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run(&Job{Kind: Pi, Samples: 100_000, Tasks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim == nil {
		t.Fatal("sim backend returned no SimStats")
	}
	if res.Sim.MakespanSeconds <= 0 {
		t.Fatalf("modelled makespan %v, want > 0", res.Sim.MakespanSeconds)
	}
	if res.Sim.Tasks != 6 {
		t.Fatalf("modelled %d tasks, want 6", res.Sim.Tasks)
	}
	if res.Sim.EnergyJoules <= 0 {
		t.Fatalf("modelled energy %v, want > 0", res.Sim.EnergyJoules)
	}
}

// TestSimTimelineRendersTaskLog pins the Gantt chart as a sim result:
// a sim run's Timeline draws one row per task stat under its header,
// and the functional backends return no SimStats to draw from.
func TestSimTimelineRendersTaskLog(t *testing.T) {
	job := &Job{Kind: Wordcount, Input: corpus()[:20_000]}
	res := runOn(t, "sim", job)
	if res.Sim == nil {
		t.Fatal("sim backend returned no SimStats")
	}
	chart := res.Sim.Timeline(60)
	lines := strings.Split(strings.TrimSuffix(chart, "\n"), "\n")
	if rows := len(lines) - 1; rows != res.Sim.Tasks || rows == 0 {
		t.Fatalf("timeline has %d rows after its header, want one per task stat (%d):\n%s", rows, res.Sim.Tasks, chart)
	}
	for _, row := range lines[1:] {
		if _, canvas, _ := strings.Cut(row, "|"); !strings.ContainsAny(canvas, "mMrR") {
			t.Errorf("timeline row %q draws no attempt", row)
		}
	}
	for _, backend := range []string{"live", "net"} {
		if res := runOn(t, backend, job); res.Sim != nil {
			t.Errorf("%s returned SimStats %+v, want nil", backend, res.Sim)
		}
	}
}

// TestWordcountMatchesSerialReference anchors the distributed word
// count against a direct serial computation with the same blocking.
func TestWordcountMatchesSerialReference(t *testing.T) {
	cfg := conformanceConfig()
	data := corpus()
	want := make(map[string]int64)
	for off := 0; off < len(data); off += int(cfg.BlockSize) {
		end := off + int(cfg.BlockSize)
		if end > len(data) {
			end = len(data)
		}
		for w, n := range kernels.WordCount(data[off:end]) {
			want[w] += n
		}
	}
	r, err := New("live", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run(&Job{Kind: Wordcount, Input: data})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(want) {
		t.Fatalf("live: %d words, reference: %d", len(res.Pairs), len(want))
	}
	for _, kv := range res.Pairs {
		if fmt.Sprintf("%d", want[kv.Key]) != kv.Value {
			t.Fatalf("word %q: live=%s reference=%d", kv.Key, kv.Value, want[kv.Key])
		}
	}
}

// TestEncryptRoundTrip decrypts through a second engine run (CTR is an
// involution) and checks the original bytes come back.
func TestEncryptRoundTrip(t *testing.T) {
	cfg := conformanceConfig()
	key := []byte("roundtrip-key-16")
	plain := corpus()[:15_000]
	r, err := New("live", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	enc, err := r.Run(&Job{Kind: Encrypt, Input: plain, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := r.Run(&Job{Kind: Encrypt, Input: enc.Bytes, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Bytes, plain) {
		t.Fatal("decrypt did not restore the plaintext")
	}
	if bytes.Equal(enc.Bytes, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
}

// TestBackendNamesMatchRunner pins Backend() to the registry name.
func TestBackendNamesMatchRunner(t *testing.T) {
	for _, name := range Backends() {
		r, err := New(name, Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := r.Backend(); got != name {
			t.Errorf("backend %q reports Backend() = %q", name, got)
		}
		if err := r.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
		if !strings.HasPrefix(name, strings.ToLower(name)) {
			t.Errorf("backend name %q not lowercase", name)
		}
	}
}
