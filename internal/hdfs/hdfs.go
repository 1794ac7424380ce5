// Package hdfs is the block namespace of the Hadoop Distributed File
// System as the paper runs it (§III-A, replication 1, no DataNode ever
// lost): a NameNode mapping file names to ordered fixed-size blocks,
// each placed on R least-loaded DataNodes with the writer's node first,
// and readers that prefer a replica on their own node. There is no
// membership, liveness or repair model here — the fault-tolerant DFS
// is netmr's NameNode.
//
// Block payloads live in one spill.Store, keyed by block ID: the
// default keeps everything in memory (live execution, examples,
// tests), while NewSpillBlockStore's watermark keeps payloads in memory
// up to a bound and writes the rest to disk as raw files — the
// bounded-memory path for datasets far larger than RAM. Replicas share
// one immutable payload per block; replication is placement metadata,
// not extra copies. Files can also be synthetic — metadata and sizes
// only — so the simulated experiments can describe the paper's 120 GB
// working sets without allocating them.
package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"hetmr/internal/spill"
)

// Errors returned by the file system.
var (
	ErrNotFound      = errors.New("hdfs: file not found")
	ErrExists        = errors.New("hdfs: file already exists")
	ErrNoDataNodes   = errors.New("hdfs: no datanodes")
	ErrSynthetic     = errors.New("hdfs: synthetic file has no readable data")
	ErrUnknownNode   = errors.New("hdfs: unknown datanode")
	ErrBadReplFactor = errors.New("hdfs: replication factor must be >= 1")
)

// BlockID identifies one block cluster-wide.
type BlockID int64

// DataNode stores block replicas for one cluster node. A replica is
// metadata — block ID and size — referencing the payload the NameNode's
// block store holds once.
type DataNode struct {
	Name   string
	blocks map[BlockID]int64 // replica sizes
	used   int64
}

type fileMeta struct {
	name      string
	blocks    []BlockID
	size      int64
	synthetic bool
}

// BlockLocation describes one block of a file: its byte range within
// the file and the datanodes holding replicas.
type BlockLocation struct {
	Block  BlockID
	Offset int64 // offset of the block within the file
	Size   int64
	Hosts  []string // datanode names, primary first
}

// NameNode is the metadata master. All mutating operations go through
// it, as in HDFS ("the master process manages the global name space
// and controls the operations on files").
type NameNode struct {
	mu          sync.Mutex
	blockSize   int64
	replication int
	store       *spill.Store[BlockID]
	files       map[string]*fileMeta
	nodes       map[string]*DataNode
	nodeOrder   []string // registration order, for deterministic placement
	locations   map[BlockID][]string
	blockSizes  map[BlockID]int64
	hasData     map[BlockID]bool // false: synthetic (metadata-only) block
	nextBlock   BlockID
}

// Option customizes NewNameNode.
type Option func(*NameNode)

// WithBlockStore selects the block payload store (default: all in
// memory). The NameNode stores each block's payload exactly once, no
// matter how many replicas reference it — a replica is placement
// metadata, the payload is immutable — so the store's memory watermark
// bounds the DFS's resident size, not the replication factor times
// it. The NameNode owns the store after construction; Close releases
// it.
func WithBlockStore(s *spill.Store[BlockID]) Option {
	return func(nn *NameNode) { nn.store = s }
}

// NewSpillBlockStore builds a disk-backed block store: payloads stay
// in memory up to memLimit bytes and spill to raw files under a fresh
// directory inside dir ("" selects the OS temp dir) beyond it.
// memLimit follows spill.New's convention, the one every
// spill-configured layer shares: 0 keeps every block in memory,
// spill.SpillAll spills every block (a pure file store). This is what
// lets the live runner stage and read datasets far larger than RAM
// with O(blockSize) resident memory. The trailing spill.Codec is
// spill.NewStore's inert parameter, read by nothing: it survives only
// because the frozen benchmark module calls NewSpillBlockStore(dir, w,
// nil), and goes with the next PR allowed to edit bench/.
func NewSpillBlockStore(dir string, memLimit int64, _ ...spill.Codec) *spill.Store[BlockID] {
	return spill.New[BlockID](dir, memLimit)
}

// NewNameNode creates a NameNode with the given block size and
// replication factor (the paper: 64 MB blocks, replication 1).
func NewNameNode(blockSize int64, replication int, opts ...Option) (*NameNode, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("hdfs: block size %d must be positive", blockSize)
	}
	if replication < 1 {
		return nil, ErrBadReplFactor
	}
	nn := &NameNode{
		blockSize:   blockSize,
		replication: replication,
		files:       make(map[string]*fileMeta),
		nodes:       make(map[string]*DataNode),
		locations:   make(map[BlockID][]string),
		blockSizes:  make(map[BlockID]int64),
		hasData:     make(map[BlockID]bool),
	}
	for _, o := range opts {
		o(nn)
	}
	if nn.store == nil {
		nn.store = spill.New[BlockID]("", 0)
	}
	return nn, nil
}

// Close releases the block store (spill files, when the store is
// disk-backed). The file system is unusable afterwards.
func (nn *NameNode) Close() error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.store.Close()
}

// BlockSize returns the configured block size.
func (nn *NameNode) BlockSize() int64 { return nn.blockSize }

// RegisterDataNode adds a datanode to the cluster.
func (nn *NameNode) RegisterDataNode(name string) (*DataNode, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.nodes[name]; ok {
		return nil, fmt.Errorf("hdfs: datanode %q already registered", name)
	}
	d := &DataNode{Name: name, blocks: make(map[BlockID]int64)}
	nn.nodes[name] = d
	nn.nodeOrder = append(nn.nodeOrder, name)
	return d, nil
}

// place chooses replica hosts for a new block: the preferred node
// first (HDFS writes the first replica on the writer's node), then the
// least-loaded of the rest (stable on registration order, so placement
// is deterministic) up to the replication factor. Callers hold nn.mu.
func (nn *NameNode) place(preferred string) ([]*DataNode, error) {
	if len(nn.nodeOrder) == 0 {
		return nil, ErrNoDataNodes
	}
	byLoad := make([]*DataNode, len(nn.nodeOrder))
	for i, n := range nn.nodeOrder {
		byLoad[i] = nn.nodes[n]
	}
	sort.SliceStable(byLoad, func(i, j int) bool { return byLoad[i].used < byLoad[j].used })
	var first *DataNode
	if preferred != "" {
		first = nn.nodes[preferred]
	}
	var chosen []*DataNode
	if first != nil {
		chosen = append(chosen, first)
	}
	for _, d := range byLoad {
		if len(chosen) >= nn.replication {
			break
		}
		if d != first {
			chosen = append(chosen, d)
		}
	}
	return chosen, nil
}

// addSyntheticBlock registers a metadata-only block (no payload, no
// store traffic). Callers hold nn.mu.
func (nn *NameNode) addSyntheticBlock(f *fileMeta, size int64, preferred string) error {
	id := nn.nextBlock
	nn.nextBlock++
	return nn.commitBlock(f, id, size, false, preferred)
}

// commitBlock registers a block's replicas on the chosen nodes and
// appends it to the file. For data blocks the payload is already in
// the block store under id, so a reader can never observe registered
// metadata without its bytes. Callers hold nn.mu.
func (nn *NameNode) commitBlock(f *fileMeta, id BlockID, size int64, hasData bool, preferred string) error {
	hosts, err := nn.place(preferred)
	if err != nil {
		return err
	}
	if hasData {
		nn.hasData[id] = true
	}
	var names []string
	for _, d := range hosts {
		d.blocks[id] = size
		d.used += size
		names = append(names, d.Name)
	}
	nn.locations[id] = names
	nn.blockSizes[id] = size
	f.blocks = append(f.blocks, id)
	f.size += size
	return nil
}

// storeBlock is the data-block write path: mint an ID, store the
// payload OUTSIDE nn.mu — a spill-backed store may hit the disk, and
// that must not stall every concurrent metadata operation — then
// commit the metadata under the lock.
func (nn *NameNode) storeBlock(f *fileMeta, data []byte, preferred string) error {
	nn.mu.Lock()
	id := nn.nextBlock
	nn.nextBlock++
	nn.mu.Unlock()
	// The store keeps what it is handed; data is borrowed.
	if err := nn.store.Put(id, bytes.Clone(data)); err != nil {
		return err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if err := nn.commitBlock(f, id, int64(len(data)), true, preferred); err != nil {
		nn.store.Delete(id)
		return err
	}
	return nil
}

// CreateSynthetic creates a file of the given size whose blocks carry
// no data. Blocks are spread across datanodes by the placement policy.
func (nn *NameNode) CreateSynthetic(name string, size int64) error {
	return nn.CreateSyntheticAt(name, size, "")
}

// CreateSyntheticAt is CreateSynthetic with a preferred primary
// replica host — the HDFS writer-locality rule for data ingested on a
// specific node ("HDFS can decide to change the blocks location in
// order to favour local accesses").
func (nn *NameNode) CreateSyntheticAt(name string, size int64, preferredNode string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	if size < 0 {
		return fmt.Errorf("hdfs: negative file size %d", size)
	}
	f := &fileMeta{name: name, synthetic: true}
	remaining := size
	for remaining > 0 {
		n := nn.blockSize
		if remaining < n {
			n = remaining
		}
		if err := nn.addSyntheticBlock(f, n, preferredNode); err != nil {
			return err
		}
		remaining -= n
	}
	nn.files[name] = f
	return nil
}

// Writer streams data into a new file, cutting blocks at the block
// size. Close finalizes the file. The internal buffer never holds more
// than one block plus the largest single Write: emitted blocks advance
// an offset cursor and the consumed prefix is dropped with one copy
// per call, so writing an n-byte file costs O(n), not O(n²).
type Writer struct {
	nn        *NameNode
	f         *fileMeta
	buf       []byte
	preferred string
	closed    bool
}

// Create opens a writer for a new file. preferredNode, when not empty,
// receives the first replica of every block (writer locality).
func (nn *NameNode) Create(name, preferredNode string) (*Writer, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	f := &fileMeta{name: name}
	nn.files[name] = f
	return &Writer{nn: nn, f: f, preferred: preferredNode}, nil
}

// Write implements io.Writer. A Writer is not goroutine-safe
// (standard io.Writer contract); blockSize is immutable, and each
// emitted block takes the NameNode lock only for its metadata commit.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("hdfs: write on closed writer")
	}
	written := len(p)
	bs := int(w.nn.blockSize)
	// Full blocks available directly from p skip the buffer entirely
	// (storeBlock copies what the store keeps).
	if len(w.buf) == 0 {
		for len(p) >= bs {
			if err := w.nn.storeBlock(w.f, p[:bs], w.preferred); err != nil {
				return 0, err
			}
			p = p[bs:]
		}
	}
	w.buf = append(w.buf, p...)
	start := 0
	for len(w.buf)-start >= bs {
		if err := w.nn.storeBlock(w.f, w.buf[start:start+bs], w.preferred); err != nil {
			return 0, err
		}
		start += bs
	}
	if start > 0 {
		n := copy(w.buf, w.buf[start:])
		w.buf = w.buf[:n]
	}
	return written, nil
}

// Close flushes the final partial block.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 {
		if err := w.nn.storeBlock(w.f, w.buf, w.preferred); err != nil {
			return err
		}
		w.buf = nil
	}
	return nil
}

// WriteFile creates name with the given contents in one call.
func (nn *NameNode) WriteFile(name string, data []byte, preferredNode string) error {
	w, err := nn.Create(name, preferredNode)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// copyBufBytes caps CreateFrom's transfer buffer: large enough to
// amortize call overhead, far below a 64 MB block.
const copyBufBytes = 256 * 1024

// CreateFrom streams r into a new file, returning the bytes written.
// Memory use is bounded by the transfer buffer plus the writer's
// block buffer regardless of the stream's length — the ingest path
// for datasets larger than RAM.
func (nn *NameNode) CreateFrom(name, preferredNode string, r io.Reader) (int64, error) {
	w, err := nn.Create(name, preferredNode)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, copyBufBytes)
	n, err := io.CopyBuffer(w, r, buf)
	if err != nil {
		return n, err
	}
	return n, w.Close()
}

// FileSize returns the file's length in bytes.
func (nn *NameNode) FileSize(name string) (int64, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f.size, nil
}

// Delete removes a file, frees its replicas and drops its payloads
// from the block store.
func (nn *NameNode) Delete(name string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	for _, id := range f.blocks {
		for _, host := range nn.locations[id] {
			if d, ok := nn.nodes[host]; ok {
				if size, ok := d.blocks[id]; ok {
					d.used -= size
					delete(d.blocks, id)
				}
			}
		}
		nn.store.Delete(id)
		delete(nn.locations, id)
		delete(nn.blockSizes, id)
		delete(nn.hasData, id)
	}
	delete(nn.files, name)
	return nil
}

// List returns all file names, sorted.
func (nn *NameNode) List() []string {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var out []string
	for name := range nn.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Locations returns the file's block layout with each block's replica
// hosts.
func (nn *NameNode) Locations(name string) ([]BlockLocation, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	var out []BlockLocation
	var off int64
	for _, id := range f.blocks {
		hosts := append([]string(nil), nn.locations[id]...)
		out = append(out, BlockLocation{Block: id, Offset: off, Size: nn.blockSizes[id], Hosts: hosts})
		off += nn.blockSizes[id]
	}
	return out, nil
}

// ReadBlock fetches a block's data from a specific datanode. The
// returned slice may alias the store's copy and must be treated as
// immutable.
func (nn *NameNode) ReadBlock(id BlockID, host string) ([]byte, error) {
	nn.mu.Lock()
	d, ok := nn.nodes[host]
	if !ok {
		nn.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, host)
	}
	if _, ok := d.blocks[id]; !ok {
		nn.mu.Unlock()
		return nil, fmt.Errorf("hdfs: block %d not on %s", id, host)
	}
	if !nn.hasData[id] {
		nn.mu.Unlock()
		return nil, ErrSynthetic
	}
	store := nn.store
	nn.mu.Unlock()
	return store.Get(id)
}

// Reader reads a file's real data sequentially, taking each block from
// the replica on preferredNode (locality) when there is one and from
// the block's primary otherwise.
type Reader struct {
	nn        *NameNode
	locs      []BlockLocation
	preferred string
	blockIdx  int
	blockOff  int
	current   []byte
}

// Open returns a sequential reader over name's data.
func (nn *NameNode) Open(name, preferredNode string) (*Reader, error) {
	nn.mu.Lock()
	f, ok := nn.files[name]
	synthetic := ok && f.synthetic
	nn.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if synthetic {
		return nil, ErrSynthetic
	}
	locs, err := nn.Locations(name)
	if err != nil {
		return nil, err
	}
	return &Reader{nn: nn, locs: locs, preferred: preferredNode}, nil
}

// fetchCurrent loads the reader's current block.
func (r *Reader) fetchCurrent() ([]byte, error) {
	loc := r.locs[r.blockIdx]
	host := loc.Hosts[0]
	for _, h := range loc.Hosts {
		if h == r.preferred {
			host = h
			break
		}
	}
	return r.nn.ReadBlock(loc.Block, host)
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	for {
		if r.current == nil {
			if r.blockIdx >= len(r.locs) {
				return 0, io.EOF
			}
			data, err := r.fetchCurrent()
			if err != nil {
				return 0, err
			}
			r.current = data
			r.blockOff = 0
		}
		n := copy(p, r.current[r.blockOff:])
		r.blockOff += n
		if r.blockOff >= len(r.current) {
			r.current = nil
			r.blockIdx++
		}
		if n > 0 || len(p) == 0 {
			return n, nil
		}
	}
}

// ReadFile returns the whole file's contents.
func (nn *NameNode) ReadFile(name string) ([]byte, error) {
	r, err := nn.Open(name, "")
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

// TotalBytes returns the bytes stored across datanodes (replicas
// counted separately).
func (nn *NameNode) TotalBytes() int64 {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var total int64
	for _, d := range nn.nodes {
		total += d.used
	}
	return total
}
