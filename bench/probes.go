package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hetmr/internal/engine"
	"hetmr/internal/flow"
	"hetmr/internal/hdfs"
	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
	"hetmr/internal/sched"
	"hetmr/internal/spill"
)

// Layer probes: each times N calls of one exported function of one
// package, on generated bytes of the size the workloads hand that
// function (4 MB sort blocks, 1 MB text and cipher blocks, 256 KiB
// shuffle chunks). A probe is a root span with one child span per
// call; its figure is computed from the median call.

// prober runs probes under a per-probe time budget.
type prober struct {
	tr     *tracer
	budget time.Duration
	minN   int
	seed   uint64
	dir    string
	out    map[string]metric
	err    error
}

// each calls fn until the budget is spent, at least minN times, and
// returns the median call time in seconds. prep, when not nil, runs
// untimed before every call.
func (p *prober) each(name string, prep, fn func() error) float64 {
	if p.err != nil {
		return 0
	}
	start := time.Now()
	parent := p.tr.add(name, 0, 0, start, start) // end patched below
	var calls []float64
	for n := 0; n < p.minN || time.Since(start) < p.budget; n++ {
		if prep != nil {
			if p.err = prep(); p.err != nil {
				return 0
			}
		}
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return 0
		}
		p.tr.add(name+".call", parent, 0, t0, t1)
		calls = append(calls, t1.Sub(t0).Seconds())
	}
	p.tr.setEnd(parent, time.Now())
	return median(calls)
}

func (p *prober) set(name, unit string, v float64) { p.out[name] = metric{v, unit} }

// rate records size/seconds in MB/s (decimal, like the job figures).
func (p *prober) rate(name string, size int, sec float64) {
	p.set(name, "MB/s", float64(size)/1e6/sec)
}

func (p *prober) records(n int) []byte {
	buf := make([]byte, n*recordSize)
	r := rng{s: p.seed}
	r.fill(buf)
	return buf
}

const (
	sortBlock   = 4_000_000
	textBlock   = 1 << 20
	fetchChunk  = 256 << 10
	mergeRuns   = 25
	splitKeys   = 11
	probeWindow = 8 * mb
)

func (p *prober) kernels() {
	unsorted := p.records(sortBlock / recordSize)
	buf := make([]byte, len(unsorted))
	sec := p.each("kernels.sort", func() error { copy(buf, unsorted); return nil },
		func() error { return kernels.SortRecords(buf) })
	p.rate("kernels.sort_mb_per_s", len(buf), sec)

	// 25 sorted runs merging into one 8 MB partition, as a reduce task
	// of a 100 MB terasort does.
	const runBytes = 320_000
	runData := p.records(mergeRuns * runBytes / recordSize)
	runs := make([][]byte, mergeRuns)
	for i := range runs {
		runs[i] = runData[i*runBytes : (i+1)*runBytes]
		if p.err == nil {
			p.err = kernels.SortRecords(runs[i])
		}
	}
	sec = p.each("kernels.merge", nil, func() error {
		readers := make([]io.Reader, len(runs))
		for i, r := range runs {
			readers[i] = bytes.NewReader(r)
		}
		_, err := kernels.MergeSortedStreams(io.Discard, readers...)
		return err
	})
	p.rate("kernels.merge_mb_per_s", len(runData), sec)

	recs := p.records(40_000)
	var sample [][]byte
	for i := 0; i < 1200; i++ {
		sample = append(sample, recs[i*recordSize:i*recordSize+kernels.SortKeyBytes])
	}
	part := kernels.NewRangePartitioner(kernels.SplitKeysFromSample(sample, splitKeys+1))
	var sink int
	sec = p.each("kernels.rangepart", nil, func() error {
		for i := 0; i < len(recs); i += recordSize {
			sink += part.Index(recs[i : i+kernels.SortKeyBytes])
		}
		return nil
	})
	p.set("kernels.rangepart_mrec_per_s", "Mrec/s", float64(len(recs)/recordSize)/1e6/sec)

	sec = p.each("kernels.sampler", nil, func() error {
		s := kernels.NewRecordKeySampler(bytes.NewReader(recs), 1200, engine.DefaultSeed)
		_, err := io.Copy(io.Discard, s)
		return err
	})
	p.rate("kernels.sampler_mb_per_s", len(recs), sec)

	textPath := p.dir + "/probe.txt"
	if _, err := genText(textPath, p.seed, textBlock, textBlock); err != nil && p.err == nil {
		p.err = err
	}
	text, err := os.ReadFile(textPath)
	if err != nil && p.err == nil {
		p.err = err
	}
	sec = p.each("kernels.wordcount", nil, func() error {
		sink += len(kernels.WordCount(text))
		return nil
	})
	p.rate("kernels.wordcount_mb_per_s", len(text), sec)

	c, err := kernels.NewCipher(benchKey)
	if err != nil && p.err == nil {
		p.err = err
	}
	src, dst, iv := recs[:textBlock], make([]byte, textBlock), make([]byte, kernels.BlockSize)
	sec = p.each("kernels.ctr", nil, func() error {
		kernels.CTRStreamFast(c, iv, 0, dst, src)
		return nil
	})
	p.rate("kernels.ctr_mb_per_s", len(src), sec)

	const samples = 1_000_000
	sec = p.each("kernels.pi", nil, func() error {
		sink += int(kernels.CountInside(engine.DefaultSeed, samples))
		return nil
	})
	p.set("kernels.pi_msamples_per_s", "Msamples/s", samples/1e6/sec)
	_ = sink
}

func (p *prober) spill() {
	if p.err != nil {
		return
	}
	block := p.records(sortBlock / recordSize)
	s := spill.NewStore(p.dir, probeWindow, nil)
	defer s.Close()
	// Two 4 MB values fit under the 8 MiB watermark; every later one
	// goes to disk.
	sec := p.each("spill.put_mem", func() error { s.Delete("m"); return nil },
		func() error { return s.Put("m", block) })
	p.rate("spill.put_mem_mb_per_s", len(block), sec)
	if p.err == nil {
		p.err = s.Put("m2", block)
	}
	n := 0
	sec = p.each("spill.put_disk", func() error { n++; return nil },
		func() error { return s.Put(fmt.Sprint("d", n), block) })
	p.rate("spill.put_disk_mb_per_s", len(block), sec)
	keys, k := n, 0
	sec = p.each("spill.get_disk", func() error { k = k%keys + 1; return nil },
		func() error { _, err := s.Get(fmt.Sprint("d", k)); return err })
	p.rate("spill.get_disk_mb_per_s", len(block), sec)
	sec = p.each("spill.getrange_disk", func() error { k = k%keys + 1; return nil },
		func() error {
			key := fmt.Sprint("d", k)
			for off := int64(0); off < int64(len(block)); off += fetchChunk {
				if _, _, err := s.GetRange(key, off, fetchChunk); err != nil {
					return err
				}
			}
			return nil
		})
	p.rate("spill.getrange_disk_mb_per_s", len(block), sec)
}

func (p *prober) hdfs() {
	if p.err != nil {
		return
	}
	nn, err := hdfs.NewNameNode(sortBlock, 1,
		hdfs.WithBlockStore(hdfs.NewSpillBlockStore(p.dir, probeWindow, nil)))
	if err != nil {
		p.err = err
		return
	}
	defer nn.Close()
	for i := 0; i < workers; i++ {
		if _, err := nn.RegisterDataNode(fmt.Sprint("dn", i)); err != nil {
			p.err = err
			return
		}
	}
	data := p.records(4 * sortBlock / recordSize)
	n := 0
	sec := p.each("hdfs.write", func() error { n++; return nil }, func() error {
		_, err := nn.CreateFrom(fmt.Sprint("/f", n), "", bytes.NewReader(data))
		return err
	})
	p.rate("hdfs.write_mb_per_s", len(data), sec)
	files, k := n, 0
	sec = p.each("hdfs.read", func() error { k = k%files + 1; return nil }, func() error {
		r, err := nn.Open(fmt.Sprint("/f", k), "")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, r)
		return err
	})
	p.rate("hdfs.read_mb_per_s", len(data), sec)
}

// echoSmall is the three-field struct of the small-call probe, the
// shape of a heartbeat or status argument.
type echoSmall struct {
	ID   int64
	Name string
	Done bool
}

// echoBlock carries a payload the way block puts and partition fetches
// do: a []byte inside a gob-encoded struct.
type echoBlock struct{ Data []byte }

func (p *prober) rpcnet() {
	if p.err != nil {
		return
	}
	srv, err := rpcnet.NewServer("127.0.0.1:0")
	if err != nil {
		p.err = err
		return
	}
	defer srv.Close()
	srv.Handle("small", func(body []byte) (any, error) {
		var a echoSmall
		err := rpcnet.Unmarshal(body, &a)
		return a, err
	})
	srv.Handle("block", func(body []byte) (any, error) {
		var a echoBlock
		err := rpcnet.Unmarshal(body, &a)
		return a, err
	})
	c, err := rpcnet.Dial(srv.Addr())
	if err != nil {
		p.err = err
		return
	}
	defer c.Close()

	small := echoSmall{ID: 42, Name: "tracker-3", Done: true}
	const batch = 200 // calls per timed unit, so that a unit is milliseconds
	sec := p.each("rpcnet.call_small", nil, func() error {
		for i := 0; i < batch; i++ {
			var r echoSmall
			if err := c.Call("small", small, &r); err != nil {
				return err
			}
		}
		return nil
	})
	p.set("rpcnet.call_small_us_p50", "us", sec/batch*1e6)

	sec = p.each("rpcnet.call_small_2x", nil, func() error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < batch; i++ {
					var r echoSmall
					if err := c.Call("small", small, &r); err != nil {
						errs[g] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	p.set("rpcnet.call_small_2x_kops", "kops/s", 2*batch/1e3/sec)

	payload := p.records(textBlock / recordSize * 2)[:textBlock]
	for _, size := range []struct {
		name string
		n    int
	}{{"rpcnet.call_block", textBlock}, {"rpcnet.call_chunk", fetchChunk}} {
		arg := echoBlock{Data: payload[:size.n]}
		sec = p.each(size.name, nil, func() error {
			var r echoBlock
			return c.Call("block", arg, &r)
		})
		// The payload crosses the wire twice per call: there and back.
		p.rate(size.name+"_mb_per_s", 2*size.n, sec)
	}

	arg := echoBlock{Data: payload}
	sec = p.each("rpcnet.marshal_block", nil, func() error {
		raw, err := rpcnet.Marshal(arg)
		if err != nil {
			return err
		}
		var r echoBlock
		return rpcnet.Unmarshal(raw, &r)
	})
	p.rate("rpcnet.marshal_block_mb_per_s", len(payload), sec)
}

// netmr probes an idle warm default-configuration cluster through the
// engine and the netmr client: DFS put and get, the no-op job floor,
// the 32-task Pi job and the Status RPC.
func (p *prober) netmr() {
	if p.err != nil {
		return
	}
	client, err := engine.Open("net", engine.Config{Workers: workers, BlockSize: textBlock, Mapper: "java"})
	if err != nil {
		p.err = err
		return
	}
	defer client.Close()
	nc := netCluster(client).Client

	data := p.records(16 * textBlock / recordSize)
	n := 0
	sec := p.each("netmr.dfs_put", func() error { n++; return nil }, func() error {
		_, err := nc.WriteFrom(fmt.Sprint("/probe/f", n), bytes.NewReader(data), "")
		return err
	})
	p.rate("netmr.dfs_put_mb_per_s", len(data), sec)
	files, k := n, 0
	sec = p.each("netmr.dfs_get", func() error { k = k%files + 1; return nil }, func() error {
		_, err := nc.ReadFile(fmt.Sprint("/probe/f", k))
		return err
	})
	p.rate("netmr.dfs_get_mb_per_s", len(data), sec)

	var last *engine.JobHandle
	job := func(samples int64, tasks int) func() error {
		return func() error {
			h, err := client.Submit(&engine.Job{Kind: engine.Pi, Samples: samples, Tasks: tasks})
			if err != nil {
				return err
			}
			last = h
			_, err = h.Wait()
			return err
		}
	}
	sec = p.each("netmr.noop_job", nil, job(1, 1))
	p.set("netmr.noop_job_ms_p50", "ms", sec*1e3)
	sec = p.each("netmr.pi_job", nil, job(piSamples, piTasks))
	p.set("netmr.pi_job_ms_p50", "ms", sec*1e3)
	if p.err != nil {
		return
	}
	const batch = 100
	sec = p.each("netmr.status_rpc", nil, func() error {
		for i := 0; i < batch; i++ {
			if _, err := last.Status(); err != nil {
				return err
			}
		}
		return nil
	})
	p.set("netmr.status_rpc_us_p50", "us", sec/batch*1e6)
}

func (p *prober) sched() {
	if p.err != nil {
		return
	}
	const tasks = 1000
	names := []string{"w0", "w1", "w2", "w3"}
	sec := p.each("sched.board", nil, func() error {
		b, err := sched.NewBoard(tasks, time.Minute, sched.Options{})
		if err != nil {
			return err
		}
		now := time.Now()
		for !b.Done() {
			for _, w := range names {
				for _, t := range b.Assign(w, 2, now, nil) {
					b.Complete(t, w)
				}
			}
		}
		return nil
	})
	p.set("sched.board_cycle_ns", "ns/task", sec/tasks*1e9)

	pool := make([]sched.Worker, workers)
	for i := range pool {
		pool[i] = sched.Worker{ID: names[i], Slots: 1}
	}
	sec = p.each("sched.pool", nil, func() error {
		_, _, err := sched.Run(pool, make([]sched.Task, tasks),
			func(w, t int) (any, error) { return nil, nil }, sched.Options{})
		return err
	})
	p.set("sched.pool_task_us", "us/task", sec/tasks*1e6)
}

func (p *prober) flow() {
	const n = 100_000
	w := flow.NewWindow(fetchChunk)
	sec := p.each("flow.window", nil, func() error {
		for i := 0; i < n; i++ {
			w.Release(w.Acquire(4096))
		}
		return nil
	})
	p.set("flow.acquire_release_ns", "ns", sec/n*1e9)
}

// runProbes runs every layer probe and returns the figures.
func runProbes(tr *tracer, dir string, seed uint64, budget time.Duration, minN int) (map[string]metric, error) {
	p := &prober{tr: tr, budget: budget, minN: minN, seed: seed, dir: dir, out: make(map[string]metric)}
	p.kernels()
	p.spill()
	p.hdfs()
	p.rpcnet()
	p.netmr()
	p.sched()
	p.flow()
	return p.out, p.err
}
