package perfmodel

import "testing"

func TestAESRateOrdering(t *testing.T) {
	// Paper Fig. 2: Cell >> Power6 > PPE.
	if AESSPEBytesPerSec*SPEsPerCell != AESCellBytesPerSec {
		t.Error("per-SPE AES rate does not sum to chip rate")
	}
	if !(AESCellBytesPerSec > AESPower6BytesPerSec) {
		t.Error("Cell must out-encrypt Power6")
	}
	if !(AESPower6BytesPerSec > AESPPEBytesPerSec) {
		t.Error("Power6 must out-encrypt PPE")
	}
	// "near 700MB/s" vs "around 45MB/s": more than an order of
	// magnitude apart.
	if AESCellBytesPerSec/AESPower6BytesPerSec < 10 {
		t.Error("Cell/Power6 AES ratio should exceed 10x")
	}
}

func TestPiRateOrdering(t *testing.T) {
	// Paper Fig. 6: Cell one order of magnitude over Power6, Power6
	// over PPE.
	if r := PiCellSamplesPerSec / PiPower6SamplesPerSec; r < 8 || r > 40 {
		t.Errorf("Cell/Power6 Pi ratio = %g, want roughly one order of magnitude", r)
	}
	if !(PiPower6SamplesPerSec > PiPPESamplesPerSec) {
		t.Error("Power6 must out-sample PPE")
	}
	if PiSPESamplesPerSec*SPEsPerCell != PiCellSamplesPerSec {
		t.Error("per-SPE Pi rate does not sum to chip rate")
	}
}

func TestCellArchitectureConstants(t *testing.T) {
	// Paper §II-B hard facts.
	if SPEsPerCell != 8 {
		t.Error("Cell BE has 8 SPEs")
	}
	if LocalStoreBytes != 256*1024 {
		t.Error("local store is 256K")
	}
	if DMAMaxRequestBytes != 16*1024 || DMAMaxInflight != 16 {
		t.Error("DMA: 16 concurrent requests of up to 16K")
	}
	if DMAAlignment != 16 || SIMDWidthBytes != 16 {
		t.Error("16-byte alignment/SIMD width")
	}
	if DMABytesPerSecond != 8.0*3.2e9 {
		t.Error("DMA bandwidth is 8 bytes/cycle at 3.2GHz")
	}
}

func TestHadoopConstants(t *testing.T) {
	if HDFSBlockBytes != 64<<20 || RecordBytes != 64<<20 {
		t.Error("64MB blocks and records per paper §IV")
	}
	if SPEBlockBytes != 4<<10 {
		t.Error("4KB SPE blocks per paper §IV-A")
	}
	if MapSlotsPerNode != 2 {
		t.Error("two Mappers per node per paper §IV")
	}
	if ReplicationFactor != 1 {
		t.Error("replication level of 1 per paper §IV")
	}
}

func TestBottleneckRelation(t *testing.T) {
	// The data-intensive result requires record delivery to be slower
	// than Java AES compute, so acceleration is hidden (Fig. 4/5).
	if LoopbackDeliveryBytesPerSec >= AESPower6BytesPerSec {
		t.Error("record delivery must be the data-intensive bottleneck")
	}
	// And the DMA engine must be far faster than any kernel, so it is
	// never the accelerator's bottleneck.
	if DMABytesPerSecond < 10*AESCellBytesPerSec {
		t.Error("DMA should not bottleneck AES on the Cell")
	}
}
