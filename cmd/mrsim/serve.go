package main

import (
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"hetmr/internal/engine"
	"hetmr/internal/netmr"
)

// serve boots a long-running multi-tenant job service and blocks until
// interrupted: the printed NameNode/JobTracker addresses are what
// client invocations (-nn/-jt) dial to submit jobs against the shared
// fleet.
func serve(cfg engine.Config, quotaSpec string) error {
	// A zero would boot at the engine's default while the banner below —
	// whose block size remote submitters must repeat — printed the zero.
	if cfg.MappersPerNode <= 0 || cfg.BlockSize <= 0 {
		return fmt.Errorf("-serve needs positive -slots and -block-size, got %d and %d", cfg.MappersPerNode, cfg.BlockSize)
	}
	quotas, err := parseQuotas(quotaSpec)
	if err != nil {
		return err
	}
	cfg.Quotas = quotas
	r, clus, err := startService(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	fmt.Printf("mrsim job service up: %d workers x %d slots, block size %d\n", len(clus.TTs), cfg.MappersPerNode, cfg.BlockSize)
	fmt.Printf("  namenode    %s\n", clus.NN.Addr())
	fmt.Printf("  jobtracker  %s\n", clus.JT.Addr())
	for _, tenant := range sortedKeys(quotas) {
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

// startService boots the service's fleet as the engine's net backend,
// so the one Config→cluster mapping (engine/net.go) decides what the
// scheduling, accelerator, spill and rack flags mean for -serve
// exactly as it does for a one-shot -backend net run. Closing the
// runner stops every daemon.
func startService(cfg engine.Config) (engine.Runner, *netmr.Cluster, error) {
	r, err := engine.New("net", cfg)
	if err != nil {
		return nil, nil, err
	}
	return r, r.(interface{ Cluster() *netmr.Cluster }).Cluster(), nil
}

// parseQuotas reads the -quotas syntax: a comma-separated list of
// tenant=weight[:maxJobs[:maxTrackers[:spillBytes[:maxQueued]]]]
// entries, e.g. "alice=3,bob=1:2" (bob at weight 1, at most 2
// concurrent jobs).
func parseQuotas(spec string) (map[string]engine.Quota, error) {
	quotas := make(map[string]engine.Quota)
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
		w, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("quota entry %q: weight: %v", entry, err)
		}
		var n [5]int64 // by field position; [0], the weight's, stays unused
		for i := 1; i < len(parts); i++ {
			if n[i], err = strconv.ParseInt(parts[i], 10, 64); err != nil {
				return nil, fmt.Errorf("quota entry %q: field %d: %v", entry, i, err)
			}
		}
		quotas[name] = engine.Quota{Weight: w, MaxJobs: int(n[1]), MaxTrackers: int(n[2]), SpillBytes: n[3], MaxQueued: int(n[4])}
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
