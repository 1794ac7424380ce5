// Heterogeneous-cluster example: the paper's §V open issue — "clusters
// with an increasing level of heterogeneity, involving a dynamically
// variable number of both nodes enabled with hardware accelerators and
// general purpose nodes".
//
// Part 1 runs a real encryption job through the engine on a live
// cluster where only half the nodes have SPEs. The plain nodes'
// slowness is enacted with the engine's fault-delay knob (one real CPU
// backs every goroutine node); nothing tells the scheduler about it —
// the faster nodes simply pull more often — and the per-worker task
// counts printed at the end make the resulting imbalance visible.
// Blocks on plain nodes transparently use the host kernel: the
// programming model is unchanged.
//
// Part 2 sweeps the accelerated fraction on the simulated 32-node
// testbed — same engine API, backend "sim" — and prints how the
// CPU-intensive job's makespan responds: the accelerator-aware mapper
// fallback at work.
//
// Part 3 runs the same heterogeneity on the distributed runtime: a
// TCP-backed net cluster where half the trackers carry a per-node Cell
// device and the JobTracker's device-affinity pass steers accelerated
// map tasks toward them. The per-tracker counts print with each
// tracker's device kind; the plain trackers' slowness is enacted with
// the same fault-delay knob as part 1, since one real CPU backs every
// daemon.
//
//	go run ./examples/heterogeneous
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"
	"time"

	"hetmr/internal/engine"
	"hetmr/internal/kernels"
)

func main() {
	livePart()
	simPart()
	netPart()
}

// livePart: correctness and load balance on a half-accelerated
// functional cluster.
func livePart() {
	const workers = 4
	const accelFraction = 0.5
	plain := make([]byte, 16<<20)
	for i := range plain {
		plain[i] = byte(i * 131)
	}
	key := []byte("heterogeneous-ke")
	iv := make([]byte, 16)
	// Every live node's goroutines share one real CPU, so the plain
	// nodes' slowness is emulated with the engine's fault-delay knob.
	delays := make([]time.Duration, workers)
	for i := int(accelFraction * workers); i < workers; i++ {
		delays[i] = 10 * time.Millisecond
	}
	res, err := engine.RunOnce("live", engine.Config{
		Workers:       workers,
		BlockSize:     128 << 10,
		AccelFraction: accelFraction,
		FaultDelays:   delays,
		Speculative:   true,
	}, &engine.Job{Kind: engine.Encrypt, Input: plain, Key: key, IV: iv})
	if err != nil {
		log.Fatal(err)
	}
	cipher, err := kernels.NewCipher(key)
	if err != nil {
		log.Fatal(err)
	}
	want := make([]byte, len(plain))
	kernels.CTRStream(cipher, iv, 0, want, plain)
	if !bytes.Equal(res.Bytes, want) {
		log.Fatal("heterogeneous ciphertext mismatch")
	}
	fmt.Printf("live: %d/%d accelerated nodes, ciphertext correct\n",
		int(accelFraction*workers), workers)
	fmt.Println("per-worker task counts (dynamic scheduler, speculation on):")
	var names []string
	for name := range res.TaskCounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %s  %3d tasks\n", name, res.TaskCounts[name])
	}
	fmt.Println()
}

// simPart: performance of the Pi job as the accelerated fraction grows.
func simPart() {
	const nodes = 32
	const samples = int64(2e10)
	// Fine-grained tasks (4 maps per node instead of the paper's 2)
	// let accelerated nodes finish early and pull extra work from the
	// JobTracker — dynamic load balancing is what makes partial
	// acceleration pay off.
	const maps = nodes * 4
	fmt.Printf("sim: Pi estimation, %d nodes, %.0g samples, %d maps, accelerator-aware scheduling\n",
		nodes, float64(samples), maps)
	fmt.Println("accel-fraction  time(s)  time(s) with speculation")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		var times [2]float64
		for i, spec := range []bool{false, true} {
			accel := frac
			if accel == 0 {
				accel = engine.NoAcceleration
			}
			cfg := engine.Config{
				Workers:       nodes,
				Mapper:        "cell",
				AccelFraction: accel,
				Speculative:   spec,
			}
			res, err := engine.RunOnce("sim", cfg, &engine.Job{
				Kind: engine.Pi, Samples: samples, Tasks: maps,
			})
			if err != nil {
				log.Fatal(err)
			}
			times[i] = res.Sim.MakespanSeconds
		}
		fmt.Printf("%14.2f  %7.1f  %24.1f\n", frac, times[0], times[1])
	}
	fmt.Println("\nadding accelerated nodes speeds the job up, but mixed clusters are")
	fmt.Println("straggler-bound: the last tasks sit on slow PPE-only nodes. Speculative")
	fmt.Println("execution re-runs those stragglers on idle accelerated nodes — the")
	fmt.Println("combination delivers the §V heterogeneous-cluster win without changing")
	fmt.Println("the programming model or the job definition.")
	fmt.Println()
}

// netPart: the same heterogeneity on the distributed (TCP) runtime —
// per-tracker Cell devices, real offload with host fallback, and the
// scheduler's device-affinity pass visible in the completion counts.
func netPart() {
	const workers = 4
	const accelFraction = 0.5
	// The host trackers' Java-path slowness is enacted with the
	// fault-delay knob (one real CPU backs every daemon); the device
	// profile itself comes from AccelFraction, exactly as on live/sim.
	// The delay spans several heartbeat intervals so the rate gap is
	// visible through the pull cadence.
	delays := make([]time.Duration, workers)
	for i := int(accelFraction * workers); i < workers; i++ {
		delays[i] = 80 * time.Millisecond
	}
	res, err := engine.RunOnce("net", engine.Config{
		Workers:       workers,
		AccelFraction: accelFraction,
		FaultDelays:   delays,
	}, &engine.Job{Kind: engine.Pi, Samples: 4_000_000, Tasks: 24})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("net: Pi = %.6f over %d samples on a %d-node TCP cluster, %.0f%% accelerated\n",
		res.Pi, res.Total, workers, accelFraction*100)
	fmt.Println("per-tracker task counts (device-affinity pass + host fallback):")
	var names []string
	for name := range res.TaskCounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %s (%s)  %3d tasks\n", name, res.Devices[name], res.TaskCounts[name])
	}
	fmt.Println("\naccelerated trackers offload each map task to their Cell device and")
	fmt.Println("pull proportionally more work; the plain trackers run the identical")
	fmt.Println("host kernel, so the estimate is bit-identical at any fraction.")
}
