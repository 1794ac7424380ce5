package engine

import (
	"bytes"
	"testing"
	"time"

	"hetmr/internal/core"
	"hetmr/internal/hdfs"
	"hetmr/internal/metrics"
	"hetmr/internal/netmr"
	"hetmr/internal/spill"
)

// TestSpillWatermarkMeansOneThing pins the watermark convention at
// every layer it crosses, from Config.SpillMemBytes down to
// spill.NewStore: 0 keeps every payload in memory, SpillAll spills
// every payload, and a positive watermark W spills only what no longer
// fits under W. Each layer stores the same eight 1 000-byte blocks; the
// spilled bytes are read from the store where the layer exposes it and
// from the process-wide SpillBytes meter where it does not.
func TestSpillWatermarkMeansOneThing(t *testing.T) {
	const (
		block  = 1_000
		blocks = 8
	)
	data := bytes.Repeat([]byte("0123456789"), block*blocks/10)
	layers := []struct {
		name string
		// spilled stores data under watermark w and reports the bytes
		// that went to disk.
		spilled func(t *testing.T, w int64) int64
	}{
		{"spill.NewStore", func(t *testing.T, w int64) int64 {
			s := spill.NewStore(t.TempDir(), w, nil)
			defer s.Close()
			for i := 0; i < blocks; i++ {
				if err := s.Put(string(rune('a'+i)), data[i*block:(i+1)*block]); err != nil {
					t.Fatal(err)
				}
			}
			return s.SpilledBytes()
		}},
		{"hdfs.NewSpillBlockStore", func(t *testing.T, w int64) int64 {
			s := hdfs.NewSpillBlockStore(t.TempDir(), w, nil)
			defer s.Close()
			before := metrics.SpillBytes.Load()
			for i := 0; i < blocks; i++ {
				if err := s.Put(hdfs.BlockID(i), data[i*block:(i+1)*block]); err != nil {
					t.Fatal(err)
				}
			}
			return metrics.SpillBytes.Load() - before
		}},
		{"core", func(t *testing.T, w int64) int64 {
			c, err := core.NewLiveCluster(core.Config{Nodes: 1, BlockSize: block, SpillMem: w, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			before := metrics.SpillBytes.Load()
			if err := c.FS.WriteFile("/f", data, ""); err != nil {
				t.Fatal(err)
			}
			return metrics.SpillBytes.Load() - before
		}},
		{"netmr", func(t *testing.T, w int64) int64 {
			c, err := netmr.StartCluster(netmr.Config{Workers: 1, Slots: 1, BlockSize: block,
				Heartbeat: 10 * time.Millisecond, SpillMem: w, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			if err := c.Client.WriteFile("/f", data, ""); err != nil {
				t.Fatal(err)
			}
			return c.DNs[0].SpilledBytes()
		}},
		{"engine live", func(t *testing.T, w int64) int64 {
			r, err := New("live", Config{Workers: 1, BlockSize: block, SpillMemBytes: w, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			before := metrics.SpillBytes.Load()
			if err := r.(*liveRunner).Cluster().FS.WriteFile("/f", data, ""); err != nil {
				t.Fatal(err)
			}
			return metrics.SpillBytes.Load() - before
		}},
		{"engine net", func(t *testing.T, w int64) int64 {
			r, err := New("net", Config{Workers: 1, BlockSize: block, SpillMemBytes: w, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			c := r.(*netRunner).Cluster()
			if err := c.Client.WriteFile("/f", data, ""); err != nil {
				t.Fatal(err)
			}
			return c.DNs[0].SpilledBytes()
		}},
	}
	for _, tc := range []struct {
		name      string
		watermark int64
		want      int64
	}{
		{"zero keeps everything in memory", 0, 0},
		{"SpillAll spills everything", SpillAll, blocks * block},
		{"W spills above W", 2*block + block/2, (blocks - 2) * block},
	} {
		for _, layer := range layers {
			t.Run(tc.name+"/"+layer.name, func(t *testing.T) {
				if got := layer.spilled(t, tc.watermark); got != tc.want {
					t.Errorf("watermark %d spilled %d bytes, want %d", tc.watermark, got, tc.want)
				}
			})
		}
	}
}
