package main

import (
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hetmr/internal/engine"
	"hetmr/internal/netmr"
	"hetmr/internal/rpcnet"
	"hetmr/internal/spill"
)

// serve boots a long-running multi-tenant job service and blocks until
// interrupted: the printed NameNode/JobTracker addresses are what
// client invocations (-nn/-jt) dial to submit jobs against the shared
// fleet.
func serve(nodes, slots int, blockSize int64, quotaSpec string, spillMem int64, spillCompress bool, codecName string, racks int) error {
	quotas, err := parseQuotas(quotaSpec)
	if err != nil {
		return err
	}
	if codecName != "" {
		if _, ok := spill.CodecByName(codecName); !ok {
			return fmt.Errorf("unknown codec %q (have %v)", codecName, spill.CodecNames())
		}
	}
	opts := []netmr.ClusterOption{netmr.WithQuotas(quotas)}
	if spillMem != 0 {
		mem := spillMem
		if mem < 0 {
			mem = 0 // spill everything
		}
		var codec spill.Codec
		if spillCompress {
			codec = spill.Flate()
			if codecName != "" {
				codec, _ = spill.CodecByName(codecName) // validated above
			}
		}
		opts = append(opts, netmr.WithSpill("", mem, codec))
	}
	if codecName != "" {
		opts = append(opts, netmr.WithWireCodec(codecName))
	}
	if racks >= 2 {
		opts = append(opts, netmr.WithRacks(racks))
	}
	svc, err := netmr.StartService(nodes, slots, blockSize, 20*time.Millisecond, opts...)
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Printf("mrsim job service up: %d workers x %d slots, block size %d\n", nodes, slots, blockSize)
	fmt.Printf("  namenode    %s\n", svc.NameNodeAddr())
	fmt.Printf("  jobtracker  %s\n", svc.JobTrackerAddr())
	for _, tenant := range sortedQuotaTenants(quotas) {
		q := quotas[tenant]
		fmt.Printf("  tenant %-12s weight=%g maxJobs=%d maxTrackers=%d spillBytes=%d\n",
			tenant, q.Weight, q.MaxJobs, q.MaxTrackers, q.SpillBytes)
	}
	fmt.Println("submit with: mrsim -nn <addr> -jt <addr> -tenant <name> -workload ...")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nmrsim: shutting the service down")
	return nil
}

// parseQuotas reads the -quotas syntax: a comma-separated list of
// tenant=weight[:maxJobs[:maxTrackers[:spillBytes[:maxQueued]]]]
// entries, e.g. "alice=3,bob=1:2" (bob at weight 1, at most 2
// concurrent jobs).
func parseQuotas(spec string) (map[string]netmr.Quota, error) {
	quotas := make(map[string]netmr.Quota)
	if spec == "" {
		return quotas, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("quota entry %q: want tenant=weight[:maxJobs[:maxTrackers[:spillBytes[:maxQueued]]]]", entry)
		}
		parts := strings.Split(rest, ":")
		if len(parts) > 5 {
			return nil, fmt.Errorf("quota entry %q has %d fields, at most 5", entry, len(parts))
		}
		var q netmr.Quota
		if w, err := strconv.ParseFloat(parts[0], 64); err != nil {
			return nil, fmt.Errorf("quota entry %q: weight: %v", entry, err)
		} else {
			q.Weight = w
		}
		ints := []*int{nil, &q.MaxJobs, &q.MaxTrackers, nil, &q.MaxQueued}
		for i := 1; i < len(parts); i++ {
			if i == 3 {
				n, err := strconv.ParseInt(parts[3], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("quota entry %q: spillBytes: %v", entry, err)
				}
				q.SpillBytes = n
				continue
			}
			n, err := strconv.Atoi(parts[i])
			if err != nil {
				return nil, fmt.Errorf("quota entry %q: field %d: %v", entry, i, err)
			}
			*ints[i] = n
		}
		quotas[name] = q
	}
	return quotas, nil
}

// runAdmin executes the cluster-membership admin verbs against a
// running job service: list the membership view, drain a tracker, or
// re-replicate and retire a DataNode.
func runAdmin(nnAddr, jtAddr string, blockSize int64, list bool, decommTracker, decommDN string) error {
	if nnAddr == "" || jtAddr == "" {
		return fmt.Errorf("admin commands need both -nn and -jt")
	}
	c, err := netmr.NewClient(nnAddr, jtAddr, blockSize)
	if err != nil {
		return err
	}
	defer c.Close()
	if decommTracker != "" {
		if err := c.DecommissionTracker(decommTracker); err != nil {
			return err
		}
		fmt.Printf("tracker %s draining: no new work; it exits once in-flight tasks and held shuffle state clear\n", decommTracker)
	}
	if decommDN != "" {
		if err := c.DecommissionDataNode(decommDN); err != nil {
			return err
		}
		fmt.Printf("datanode %s decommissioned: blocks re-replicated and node dropped from placement\n", decommDN)
		fmt.Println("stop the daemon to finish retirement — left running, it rejoins as an empty member on its next heartbeat")
	}
	if list {
		trackers, err := c.ListTrackers()
		if err != nil {
			return err
		}
		fmt.Printf("trackers (%d):\n", len(trackers))
		for _, t := range trackers {
			fmt.Printf("  %-16s rack=%-8s device=%-5s state=%s\n", t.ID, t.Rack, t.Device, t.State)
		}
		nodes, err := c.ListDataNodes()
		if err != nil {
			return err
		}
		fmt.Printf("datanodes (%d):\n", len(nodes))
		for _, d := range nodes {
			fmt.Printf("  %-22s rack=%-8s blocks=%-5d state=%s\n", d.Addr, d.Rack, d.Blocks, d.State)
		}
	}
	return nil
}

// sortedQuotaTenants orders tenant names for stable output.
func sortedQuotaTenants(quotas map[string]netmr.Quota) []string {
	names := make([]string, 0, len(quotas))
	for name := range quotas {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runRemote submits one workload to an already-running job service as
// the given tenant, waits for it and prints the result — the client
// half of -serve.
func runRemote(nnAddr, jtAddr, tenant, wl string, blockSize int64, mb float64, samples int64, maps int, timeout time.Duration, codecName string) error {
	var copts []netmr.ClientOption
	if codecName != "" {
		copts = append(copts, netmr.WithClientWireCodec(codecName))
	}
	tc, err := netmr.NewTenantClient(nnAddr, jtAddr, blockSize, tenant, copts...)
	if err != nil {
		return err
	}
	defer tc.Close()
	if timeout == 0 {
		timeout = engine.DefaultJobTimeout
	}
	inputBytes := int64(mb * float64(int64(1)<<20))
	spec := netmr.JobSpec{Name: fmt.Sprintf("%s-%s", tenant, wl)}
	switch wl {
	case "pi":
		spec.Kernel = "pi"
		spec.Samples = samples
		spec.NumTasks = maps
	case "wc", "sort", "enc":
		if wl == "sort" {
			inputBytes -= inputBytes % 100 // whole records
		}
		path := fmt.Sprintf("/mrsim/%s-%d", wl, time.Now().UnixNano())
		if _, err := tc.WriteFrom(path, engine.SyntheticReader(inputBytes), ""); err != nil {
			return fmt.Errorf("staging %d input bytes: %w", inputBytes, err)
		}
		spec.Input = path
		switch wl {
		case "wc":
			spec.Kernel = "wordcount"
			spec.NumReducers = 3
		case "sort":
			spec.Kernel = "sort"
			spec.NumReducers = 3
		case "enc":
			spec.Kernel = "aes-ctr"
			args, err := rpcnet.Marshal(netmr.AESArgs{
				Key: []byte("mrsim-aes-key-16"), IV: make([]byte, 16), BlockBytes: blockSize,
			})
			if err != nil {
				return err
			}
			spec.Args = args
		}
	default:
		return fmt.Errorf("unknown workload %q for remote submission (enc|pi|wc|sort)", wl)
	}
	start := time.Now()
	id, err := tc.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Printf("tenant=%s job=%d workload=%s submitted to %s\n", tenant, id, wl, jtAddr)
	st, err := tc.WaitStatus(id, timeout)
	if err != nil {
		return err
	}
	raw := st.Result
	fmt.Printf("  wall time       %v\n", time.Since(start))
	fmt.Printf("  tasks           %d of %d completed\n", st.Completed, st.Total)
	switch wl {
	case "pi":
		var pi netmr.PiResult
		if err := rpcnet.Unmarshal(raw, &pi); err != nil {
			return err
		}
		fmt.Printf("  pi              %.6f (%d of %d samples inside)\n", pi.Pi, pi.Inside, pi.Total)
	case "wc":
		var counts map[string]int64
		if err := rpcnet.Unmarshal(raw, &counts); err != nil {
			return err
		}
		fmt.Printf("  distinct words  %d\n", len(counts))
	case "sort", "enc":
		fmt.Printf("  output          %d bytes\n", len(raw))
	}
	return nil
}
