// Package workload builds the simulated runner's inputs — hadoop
// splits over an hdfs.NameNode: the encryption working sets laid out
// per the paper's data-distribution model (Fig. 3 — split size
// FileSize/NumMappers, 64 MB records, data ingested locally so the
// locality scheduler can keep reads on the loopback path), the same
// partitioning of any stored file (SplitsFromFile), and the Pi
// estimator's sample partitions.
package workload

import (
	"fmt"
	"sort"

	"hetmr/internal/hadoop"
	"hetmr/internal/hdfs"
	"hetmr/internal/kernels"
	"hetmr/internal/perfmodel"
)

// EncryptionDataset creates the data-intensive working set on the DFS:
// one pinned sub-file per mapper (data ingested by the mapper's own
// node, giving the first replica writer locality), and returns one
// split per mapper whose records point at that node — the layout of
// the paper's Figure 3.
func EncryptionDataset(nn *hdfs.NameNode, nodes []string, mappersPerNode int,
	bytesPerMapper int64) ([]hadoop.Split, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("workload: no nodes")
	}
	if mappersPerNode <= 0 {
		return nil, fmt.Errorf("workload: mappersPerNode must be positive, got %d", mappersPerNode)
	}
	if bytesPerMapper <= 0 {
		return nil, fmt.Errorf("workload: bytesPerMapper must be positive, got %d", bytesPerMapper)
	}
	var splits []hadoop.Split
	idx := 0
	for _, node := range nodes {
		for m := 0; m < mappersPerNode; m++ {
			name := fmt.Sprintf("/enc/part-%05d", idx)
			if err := nn.CreateSyntheticAt(name, bytesPerMapper, node); err != nil {
				return nil, err
			}
			locs, err := nn.Locations(name)
			if err != nil {
				return nil, err
			}
			var records []hadoop.Record
			for _, loc := range locs {
				// One 64 MB record per 64 MB block (the paper's
				// record size matches the block size).
				for off := int64(0); off < loc.Size; off += perfmodel.RecordBytes {
					n := int64(perfmodel.RecordBytes)
					if off+n > loc.Size {
						n = loc.Size - off
					}
					records = append(records, hadoop.Record{Bytes: n, Hosts: loc.Hosts})
				}
			}
			splits = append(splits, hadoop.Split{
				Index:          idx,
				Records:        records,
				PreferredHosts: []string{node},
			})
			idx++
		}
	}
	return splits, nil
}

// SplitsFromFile converts a stored file's block layout into hadoop
// splits for the simulated runner: numSplits splits of consecutive
// records of recordBytes each, with record hosts and per-split
// preferred hosts taken from the DFS block locations — exactly the
// paper's partitioning ("an split size of FileSize/NumMappers and a
// record size of 64MB", Fig. 3).
func SplitsFromFile(nn *hdfs.NameNode, name string, numSplits int, recordBytes int64) ([]hadoop.Split, error) {
	if numSplits <= 0 {
		return nil, fmt.Errorf("workload: numSplits must be positive, got %d", numSplits)
	}
	if recordBytes <= 0 {
		return nil, fmt.Errorf("workload: recordBytes must be positive, got %d", recordBytes)
	}
	locs, err := nn.Locations(name)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err) // hdfs.ErrNotFound for a missing file
	}
	size, err := nn.FileSize(name)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, fmt.Errorf("workload: input file %q is empty", name)
	}
	// hostAt returns the replica hosts of the block containing offset.
	hostAt := func(off int64) []string {
		for _, l := range locs {
			if off >= l.Offset && off < l.Offset+l.Size {
				return l.Hosts
			}
		}
		return nil
	}
	splitBytes := (size + int64(numSplits) - 1) / int64(numSplits)
	var splits []hadoop.Split
	for i := 0; i < numSplits; i++ {
		start := int64(i) * splitBytes
		end := start + splitBytes
		if end > size {
			end = size
		}
		if start >= end {
			break
		}
		var records []hadoop.Record
		hostVotes := make(map[string]int)
		for off := start; off < end; off += recordBytes {
			n := recordBytes
			if off+n > end {
				n = end - off
			}
			hosts := hostAt(off)
			records = append(records, hadoop.Record{Bytes: n, Hosts: hosts})
			for _, h := range hosts {
				hostVotes[h]++
			}
		}
		splits = append(splits, hadoop.Split{
			Index:          i,
			Records:        records,
			PreferredHosts: topHosts(hostVotes, 2),
		})
	}
	// Re-index after possible truncation.
	for i := range splits {
		splits[i].Index = i
	}
	return splits, nil
}

// topHosts returns the up-to-k most frequent hosts, ties broken by
// name for determinism.
func topHosts(votes map[string]int, k int) []string {
	var hosts []string
	for h := range votes {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool {
		if votes[hosts[i]] != votes[hosts[j]] {
			return votes[hosts[i]] > votes[hosts[j]]
		}
		return hosts[i] < hosts[j]
	})
	if len(hosts) > k {
		hosts = hosts[:k]
	}
	return hosts
}

// PiSplits builds the CPU-intensive job's splits: totalSamples spread
// over numMaps map tasks (the Hadoop PiEstimator layout the paper
// ported). The per-task sample counts come from the canonical
// decomposition (kernels.SplitSamples) so simulated task sizing always
// matches what the functional runners execute.
func PiSplits(totalSamples int64, numMaps int) ([]hadoop.Split, error) {
	if totalSamples <= 0 || numMaps <= 0 {
		return nil, fmt.Errorf("workload: need positive samples (%d) and maps (%d)", totalSamples, numMaps)
	}
	splits := make([]hadoop.Split, numMaps)
	for i, task := range kernels.SplitSamples(totalSamples, numMaps, 0) {
		splits[i] = hadoop.Split{Index: i, Samples: task.Samples}
	}
	return splits, nil
}
