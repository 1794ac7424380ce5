package engine

import (
	"bytes"
	"testing"

	"hetmr/internal/kernels"
)

// The streaming conformance suite: the same job fed through Job.Source
// (with output through Job.Sink for byte kinds) and bounded by a spill
// watermark must produce results bit-identical to the materialized
// Input path on every backend. Streaming changes where bytes live —
// never what they are.

// streamingConfig is conformanceConfig with the data plane bounded: a
// watermark far below the test datasets, so every layer's spill path
// actually runs.
func streamingConfig(t *testing.T) Config {
	cfg := conformanceConfig()
	cfg.SpillMemBytes = 10_000
	cfg.SpillDir = t.TempDir()
	return cfg
}

// runStreaming executes kind on backend with the dataset arriving via
// Source and (for byte kinds) leaving via Sink, returning a Result
// shaped like the materialized path for SameResult.
func runStreaming(t *testing.T, backend string, cfg Config, kind Kind, data []byte) *Result {
	t.Helper()
	job := &Job{Kind: kind, Source: bytes.NewReader(data)}
	var sink bytes.Buffer
	if kind == Sort || kind == Encrypt {
		job.Sink = &sink
	}
	if kind == Encrypt {
		job.Key = []byte("conformance-key!")
		job.IV = []byte("conformance-iv!!")
	}
	r, err := New(backend, cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", backend, err)
	}
	defer r.Close()
	res, err := r.Run(job)
	if err != nil {
		t.Fatalf("%s: streaming %s: %v", backend, kind, err)
	}
	if job.Sink != nil {
		if res.Bytes != nil {
			t.Fatalf("%s: %s materialized Bytes despite a Sink", backend, kind)
		}
		if res.OutputBytes != int64(sink.Len()) {
			t.Fatalf("%s: %s OutputBytes %d, sink received %d", backend, kind, res.OutputBytes, sink.Len())
		}
		res.Bytes = sink.Bytes()
	}
	return res
}

func TestStreamingConformance(t *testing.T) {
	datasets := map[Kind][]byte{
		Wordcount: corpus(),
		Sort:      kernels.GenerateSortRecords(2009, 1_000),
		Encrypt:   corpus()[:20_000],
	}
	for _, kind := range []Kind{Wordcount, Sort, Encrypt} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			data := datasets[kind]
			// Reference: the materialized path on the live backend
			// with no spilling — the historical configuration.
			job := &Job{Kind: kind, Input: data}
			if kind == Encrypt {
				job.Key = []byte("conformance-key!")
				job.IV = []byte("conformance-iv!!")
			}
			ref := runOn(t, "live", job)
			for _, backend := range Backends() {
				res := runStreaming(t, backend, streamingConfig(t), kind, data)
				if err := SameResult(kind, ref, res); err != nil {
					t.Fatalf("streaming %s on %s diverges from materialized live: %v", kind, backend, err)
				}
			}
		})
	}
}

// TestSyntheticGeneratorConformance pins the InputBytes path: the
// functional backends now consume the deterministic generator
// incrementally, and all of them — including the simulator's
// functional pass at this small scale — agree bit for bit.
func TestSyntheticGeneratorConformance(t *testing.T) {
	cfg := streamingConfig(t)
	job := func() *Job { return &Job{Kind: Wordcount, InputBytes: 30_000} }
	ref := runOn(t, "live", job())
	if len(ref.Pairs) == 0 {
		t.Fatal("live produced no pairs for a synthetic dataset")
	}
	for _, backend := range []string{"net", "sim"} {
		r, err := New(backend, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(job())
		r.Close()
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if err := SameResult(Wordcount, ref, res); err != nil {
			t.Fatalf("synthetic wordcount on %s: %v", backend, err)
		}
	}
}

// TestSyntheticReaderMatchesMaterialized pins the generator itself.
func TestSyntheticReaderMatchesMaterialized(t *testing.T) {
	want := syntheticInput(10_000)
	var got bytes.Buffer
	buf := make([]byte, 777) // odd chunk size crosses every boundary shape
	r := SyntheticReader(10_000)
	for {
		n, err := r.Read(buf)
		got.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("SyntheticReader diverges from the materialized generator")
	}
}

// TestSortShapeRejectedAtSubmit pins the API-boundary validation: a
// sort whose block size would split records errors at Run on every
// backend instead of silently mis-sorting.
func TestSortShapeRejectedAtSubmit(t *testing.T) {
	cfg := Config{Workers: 2, BlockSize: 1_024} // not a multiple of 100
	data := kernels.GenerateSortRecords(1, 50)
	for _, backend := range []string{"live", "net", "sim"} {
		r, err := New(backend, cfg)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		_, err = r.Run(&Job{Kind: Sort, Input: data})
		r.Close()
		if err == nil {
			t.Fatalf("%s accepted a sort with block size 1024", backend)
		}
	}
	// Torn inputs are rejected too.
	r, err := New("live", Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(&Job{Kind: Sort, Input: data[:150]}); err == nil {
		t.Fatal("live accepted a sort input that is not whole records")
	}
	if _, err := r.Run(&Job{Kind: Sort, InputBytes: 1_050}); err == nil {
		t.Fatal("live accepted a synthetic sort size that is not whole records")
	}
}

// TestSinkRejectedForNonByteKinds pins that a Sink on wordcount or pi
// is an error, never a silently dropped knob.
func TestSinkRejectedForNonByteKinds(t *testing.T) {
	r, err := New("live", Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var sink bytes.Buffer
	if _, err := r.Run(&Job{Kind: Wordcount, Input: []byte("a b"), Sink: &sink}); err == nil {
		t.Fatal("wordcount with a Sink accepted")
	}
	if _, err := r.Run(&Job{Kind: Pi, Samples: 100, Sink: &sink}); err == nil {
		t.Fatal("pi with a Sink accepted")
	}
}
