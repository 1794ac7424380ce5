// Package perfmodel holds the calibrated performance constants used by
// the simulated testbed. Every constant cites the statement or figure
// in Becerra et al. (ICPP 2009) it is derived from; where the paper is
// silent we use the Hadoop 0.19 defaults the paper says it ran with.
//
// The distributed curves in the paper are NOT curve-fitted here: the
// simulator executes the modelled Hadoop/HDFS/Cell protocols and the
// figure shapes (floors, crossovers, who-wins) emerge from these
// per-device rates and per-operation overheads.
package perfmodel

// Cell BE micro-architecture constants (paper §II-B).
const (
	// SPEsPerCell is the number of SPE cores per Cell BE chip.
	SPEsPerCell = 8
	// CellsPerQS22 is the number of Cell processors on a QS22 blade.
	CellsPerQS22 = 2
	// LocalStoreBytes is each SPE's local store capacity (256 KB).
	LocalStoreBytes = 256 * 1024
	// DMAMaxRequestBytes is the largest single DMA request (16 KB).
	DMAMaxRequestBytes = 16 * 1024
	// DMAMaxInflight is the MFC queue depth (16 concurrent requests).
	DMAMaxInflight = 16
	// DMAAlignment is the alignment SIMD/DMA transfers must satisfy.
	DMAAlignment = 16
	// DMABytesPerSecond is the per-SPE DMA engine bandwidth: "8 bytes
	// per cycle in each direction" at 3.2 GHz = 25.6 GB/s.
	DMABytesPerSecond = 8.0 * 3.2e9
	// SIMDWidthBytes is the Cell vector width ("data sets of 16
	// bytes").
	SIMDWidthBytes = 16
)

// Kernel compute rates. The encryption rates are read directly off
// Figure 2; the Pi rates off Figure 6.
const (
	// AESPower6BytesPerSec: "one Power6 core is around 45MB/s".
	AESPower6BytesPerSec = 45e6
	// AESPPEBytesPerSec: the PPE Java curve sits roughly 2.3x below
	// Power6 in Fig. 2.
	AESPPEBytesPerSec = 19e6
	// AESCellBytesPerSec: "the maximum data rate at which one Cell
	// processor can encrypt data is near 700MB/s" (8 SPEs together).
	AESCellBytesPerSec = 700e6
	// AESSPEBytesPerSec is the per-SPE share of the chip rate.
	AESSPEBytesPerSec = AESCellBytesPerSec / SPEsPerCell

	// CellMRStagingBytesPerSec models the MapReduce-for-Cell
	// framework's extra PPE copy of the input into framework-managed
	// buffers ("the original input data must be copied again to
	// internal buffers managed by the framework"). A PPE memcpy
	// sustains roughly 1.2 GB/s.
	CellMRStagingBytesPerSec = 1.2e9
	// CellMRFrameworkInitSeconds is the per-invocation setup cost of
	// the Cell MapReduce framework (buffer pools, SPE contexts).
	CellMRFrameworkInitSeconds = 5e-3

	// PiPower6SamplesPerSec: Fig. 6 Power6 plateau (~2e6 samples/s).
	PiPower6SamplesPerSec = 2e6
	// PiPPESamplesPerSec: Fig. 6 PPE plateau, ~2.5x below Power6;
	// consistent with the distributed Java times of Figs. 7/8, which
	// run the Java kernel on the QS22 PPEs.
	PiPPESamplesPerSec = 8e5
	// PiCellSamplesPerSec: Fig. 6 Cell plateau, "one order of
	// magnitude faster than the Java kernel running on top of the
	// Power6" once above ~1e7 samples, "and even more" vs the PPE.
	PiCellSamplesPerSec = 2.2e7
	// PiSPESamplesPerSec is the per-SPE share of the chip rate.
	PiSPESamplesPerSec = PiCellSamplesPerSec / SPEsPerCell
)

// SPE offload session overheads (Fig. 2 and Fig. 6 show the Cell
// curves dipping below the CPUs at small problem sizes: "the overhead
// of work distribution about SPUs is only worth when the work ... is
// above the overhead of SPUs initialization").
const (
	// SPUOffloadInitSeconds is the fixed per-offload-session overhead
	// (8 contexts, synchronization, argument marshalling).
	SPUOffloadInitSeconds = 2.5e-3
	// DMASetupSeconds is the per-request MFC issue cost.
	DMASetupSeconds = 0.2e-6
)

// Cluster fabric constants (paper §IV: "All the nodes were connected
// using a Gigabit ethernet").
const (
	// GbEBytesPerSecond is the usable rate of the Gigabit NIC
	// (~940 Mb/s of goodput).
	GbEBytesPerSecond = 117e6
	// LoopbackDeliveryBytesPerSec is the *effective* rate at which the
	// Hadoop RecordReader delivers data from the co-located DataNode
	// to the Mapper over the loopback interface. The paper measured
	// "several seconds to send the data ... at a much slower rate than
	// the actual maximum rate that can be delivered by such a virtual
	// network interface, even in the case that all the data was
	// resident in the OS buffer cache". This is the data-intensive
	// bottleneck: per 64 MB record it is ~4 s, matching Figs. 4/5.
	LoopbackDeliveryBytesPerSec = 16e6
	// DiskBytesPerSecond is the QS22 local disk streaming rate.
	DiskBytesPerSecond = 60e6
)

// Hadoop 0.19 runtime constants (paper §III-A / §IV configuration,
// defaults from the Hadoop 0.19 release where the paper is silent).
const (
	// HeartbeatSeconds is the TaskTracker->JobTracker heartbeat
	// interval (0.19 default 3 s; the JobTracker assigns at most one
	// new task per heartbeat, pre-MAPREDUCE-706 behaviour).
	HeartbeatSeconds = 3.0
	// MapSlotsPerNode: "two Mappers were run in parallel" per blade.
	MapSlotsPerNode = 2
	// TaskLaunchSeconds is the cost of spawning the task JVM and
	// localizing the job (0.19 launched one JVM per task).
	TaskLaunchSeconds = 1.5
	// TaskHousekeepingSeconds is the JobTracker-side serialized
	// bookkeeping per completed task (status processing, partial
	// result collection and sorting — "the JobTracker is also
	// responsible for collecting and sorting the partial results").
	// This serial section is what eventually caps scaling in Fig. 8.
	TaskHousekeepingSeconds = 0.9
	// JobSetupSeconds covers job submission, split computation and
	// staging before the first heartbeat can be answered.
	JobSetupSeconds = 8.0
	// JobCleanupSeconds covers the job cleanup task and final
	// result/counters aggregation.
	JobCleanupSeconds = 6.0
	// HDFSBlockBytes: "The HDFS was configured to use 64MB blocks".
	HDFSBlockBytes = 64 * 1024 * 1024
	// ReplicationFactor: "a replication level of 1".
	ReplicationFactor = 1
	// RecordBytes: "a record size of 64MB".
	RecordBytes = 64 * 1024 * 1024
	// SPEBlockBytes: "each record was split into 4KB data blocks that
	// were sent to the SPUs".
	SPEBlockBytes = 4 * 1024
	// HeartbeatProcessSeconds is the JobTracker's serialized cost to
	// process one heartbeat RPC.
	HeartbeatProcessSeconds = 30e-3
)

// Energy model (paper §V names energy as the open issue; constants are
// nameplate figures for the blades involved, used by the energy
// extension only — no paper figure depends on them).
const (
	// QS22IdleWatts / QS22BusyWatts bracket a dual-Cell QS22 blade.
	QS22IdleWatts = 230.0
	QS22BusyWatts = 330.0
)
