package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hetmr/internal/engine"
	"hetmr/internal/kernels"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpecMatchesBenchmarkJSON holds the tables in the code and
// BENCHMARK.json to each other: same workloads with the same reasons,
// same end-to-end metrics with the same units, directions and bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
}

// TestQuickRunEmitsEveryMetric runs every workload in both passes at
// -quick size and checks that each metric BENCHMARK.json names comes
// out exactly once per workload, finite, with the listed unit, and
// that every job's output verified.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOnce(w, traced, runOptions{seed: 2009, seconds: 1, quick: true, log: io.Discard}, out)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced=%v): %d of %d jobs failed", w.name, traced, res.Failed, res.Attempted)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics emitted, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, spec := range want {
				m, ok := res.Metrics[spec.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, spec.Name)
				case m.Unit != spec.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, spec.Name, m.Unit, spec.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, spec.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, spec.Name, m.Value)
				}
			}
			if traced && len(res.Spans) == 0 {
				t.Errorf("%s: traced pass recorded no spans", w.name)
			}
		}
	}
	if entries, _ := os.ReadDir(out); len(entries) != 0 {
		t.Errorf("scratch directories left behind: %v", entries)
	}
}

// sortedRecords returns n records in key order and their reference.
func sortedRecords(t *testing.T, n int) ([]byte, sortRef) {
	t.Helper()
	buf := make([]byte, n*recordSize)
	r := rng{s: 7}
	r.fill(buf)
	if err := kernels.SortRecords(buf); err != nil {
		t.Fatal(err)
	}
	ref := sortRef{bytes: int64(len(buf))}
	for i := 0; i < len(buf); i += recordSize {
		ref.digest += recordHash(buf[i : i+recordSize])
	}
	return buf, ref
}

// feed writes data to w in uneven pieces, so that records straddle
// Write calls the way streamed partitions do.
func feed(w io.Writer, data []byte) {
	for step := 1; len(data) > 0; step = step*7%1009 + 1 {
		n := min(step, len(data))
		w.Write(data[:n])
		data = data[n:]
	}
}

func TestSortSink(t *testing.T) {
	good, ref := sortedRecords(t, 500)
	s := &sortSink{}
	feed(s, good)
	if err := s.check(ref); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}

	mutate := func(name, wantErr string, f func(b []byte) []byte) {
		s := &sortSink{}
		feed(s, f(append([]byte(nil), good...)))
		if err := s.check(ref); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, wantErr)
		}
	}
	mutate("swapped records", "not sorted", func(b []byte) []byte {
		tmp := append([]byte(nil), b[:recordSize]...)
		copy(b[:recordSize], b[100*recordSize:101*recordSize])
		copy(b[100*recordSize:], tmp)
		return b
	})
	mutate("flipped payload bit", "not a permutation", func(b []byte) []byte { b[50] ^= 1; return b })
	mutate("duplicated for dropped record", "not a permutation", func(b []byte) []byte {
		copy(b[recordSize:2*recordSize], b[:recordSize])
		return b
	})
	mutate("missing record", "bytes", func(b []byte) []byte { return b[:len(b)-recordSize] })
	mutate("partial record", "partial", func(b []byte) []byte { return b[:len(b)-1] })
}

func TestCipherSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain")
	const size = 3*genChunk + 777
	ref, err := genPlaintext(path, 11, size)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The stdlib reference must agree with the system's own kernel on a
	// correct output, or every encrypt job would count as failed.
	c, err := kernels.NewCipher(benchKey)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, len(plain))
	kernels.CTRStreamFast(c, make([]byte, kernels.BlockSize), 0, ct, plain)
	s := &cipherSink{}
	feed(s, ct)
	if err := s.check(ref); err != nil {
		t.Fatalf("correct ciphertext rejected: %v", err)
	}
	ct[len(ct)/2] ^= 0x10
	s = &cipherSink{}
	feed(s, ct)
	if err := s.check(ref); err == nil {
		t.Error("flipped ciphertext byte not detected")
	}
}

// TestTextReference holds the generator's tallies — the wordcount
// reference — to the kernel applied per block, which is how the system
// counts, and checks that a wrong count trips the checker.
func TestTextReference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "text")
	const size, block = 300_000, 64_000
	ref, err := genText(path, 5, size, block)
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) != size {
		t.Fatalf("generated %d bytes, want %d", len(text), size)
	}
	merged := make(map[string]int64)
	for off := 0; off < len(text); off += block {
		for w, n := range kernels.WordCount(text[off:min(off+block, len(text))]) {
			merged[w] += n
		}
	}
	if !reflect.DeepEqual(merged, ref) {
		t.Fatalf("generator tallies differ from the per-block kernel count (%d vs %d words)", len(ref), len(merged))
	}

	pairs := func(m map[string]int64) []engine.KV {
		var kvs []engine.KV
		for w, n := range m {
			kvs = append(kvs, engine.KV{Key: w, Value: strconv.FormatInt(n, 10)})
		}
		return kvs
	}
	if err := checkCounts(pairs(ref), ref); err != nil {
		t.Fatalf("correct counts rejected: %v", err)
	}
	wrong := make(map[string]int64)
	for w, n := range ref {
		wrong[w] = n
	}
	for w := range wrong {
		wrong[w]++
		break
	}
	if err := checkCounts(pairs(wrong), ref); err == nil {
		t.Error("wrong count not detected")
	}
	delete(wrong, "aaa")
	if err := checkCounts(pairs(wrong), ref); err == nil {
		t.Error("missing word not detected")
	}
}

func TestCheckPi(t *testing.T) {
	d := newPiJob(10_000, 4)
	ok := &engine.Result{Inside: d.inside, Total: d.samples}
	if err := checkPi(ok, d.inside, d.samples); err != nil {
		t.Fatalf("correct count rejected: %v", err)
	}
	ok.Inside++
	if err := checkPi(ok, d.inside, d.samples); err == nil {
		t.Error("wrong inside count not detected")
	}
}

// TestSpreadMatchesPython pins spread to Python's
// statistics.quantiles(values, n=4), the figure the bounds are judged
// against.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5}
	// quantiles → [2.75, 5.5, 8.25]; median 5.5.
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mbps []float64) string {
		f := resultFile{Seconds: 10}
		for _, v := range mbps {
			f.Runs = append(f.Runs, &runResult{Workload: "encrypt-net",
				Metrics: map[string]metric{"job_mb_per_s": {v, "MB/s"}}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{100, 101, 99, 100, 102})
	for _, c := range []struct {
		name    string
		values  []float64
		verdict string
		worse   bool
	}{
		{"same.json", []float64{98, 99, 97, 98, 99}, "same", false},
		{"slow.json", []float64{60, 61, 59, 60, 61}, "worse", true},
		{"fast.json", []float64{150, 151, 149, 150, 152}, "better", false},
		{"noisy.json", []float64{40, 100, 160, 70, 130}, "unresolved", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(c.name, c.values))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict+" (n=5,5)") {
			t.Errorf("%s: worse=%v, output:\n%s", c.name, worse, out.String())
		}
	}
}
