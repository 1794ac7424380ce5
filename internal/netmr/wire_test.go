package netmr

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/parser"
	"go/token"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetmr/internal/rpcnet"
	"hetmr/internal/testutil"
)

// TestDFSBlockBytesSkipGob is the data plane's copy budget, measured
// where a job pays it: on a warm cluster at replication 2 a written
// file byte is allocated about two and a half times (one stored copy
// per replica, plus the client's recycled block buffers: a window's
// worth for the whole file) and a read one once (its place in the
// result) — blocks ride raw frame tails. Inside a gob struct each hop
// allocated the block three more times (put 9.4, get 8.1); with a fresh
// client buffer per block, put cost 3.3.
func TestDFSBlockBytesSkipGob(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the ceilings hold only without it")
	}
	cluster, err := StartCluster(Config{Workers: 4, Slots: 1, BlockSize: 1 << 20, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	data := make([]byte, 16<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	allocated := func(fn func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const rounds = 3
	var put, get float64
	for i := 0; i <= rounds; i++ {
		name := fmt.Sprintf("/alloc/%d", i)
		var got []byte
		w := allocated(func() { err = cluster.Client.WriteFile(name, data, "") })
		if err != nil {
			t.Fatal(err)
		}
		r := allocated(func() { got, err = cluster.Client.ReadFile(name) })
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %d bytes of %d, err %v", len(got), len(data), err)
		}
		if i > 0 { // round 0 dials the connections and warms the buffer pool
			put, get = put+w, get+r
		}
		if err := cluster.Client.DeleteFile(name); err != nil {
			t.Fatal(err)
		}
	}
	put /= rounds * float64(len(data))
	get /= rounds * float64(len(data))
	t.Logf("allocated per file byte: put %.2f, get %.2f", put, get)
	if put > 3.0 {
		t.Errorf("WriteFile allocates %.2f B per file byte, want <= 3.0", put)
	}
	if get > 1.5 {
		t.Errorf("ReadFile allocates %.2f B per file byte, want <= 1.5", get)
	}
}

// TestMapTaskReadsTheBlockInPlace pins the map side's copy budget: a
// warm fetchBlock lends the 1 MiB block to its use where the reply
// landed, in rpcnet's pooled frame buffer, so a read allocates a small
// constant. Appending the tail into a fresh slice of the block's size
// first cost a whole byte per block byte.
func TestMapTaskReadsTheBlockInPlace(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the ceiling holds only without it")
	}
	const block = 1 << 20
	c := startTestCluster(t, 1, block)
	data := bytes.Repeat([]byte("in place "), block/9+1)[:block]
	if err := c.Client.WriteFile("/inplace", data, ""); err != nil {
		t.Fatal(err)
	}
	var lookup LookupReply
	if err := c.Client.nn("Lookup", LookupArgs{File: "/inplace"}, &lookup); err != nil || len(lookup.Blocks) != 1 {
		t.Fatalf("lookup: %+v, err %v", lookup, err)
	}
	blk, tt := lookup.Blocks[0], c.TTs[0]
	use := func(b []byte) error {
		if len(b) != block {
			return fmt.Errorf("use saw %d bytes of a %d-byte block", len(b), block)
		}
		return nil
	}
	fetch := func() {
		if err := tt.fetchBlock(blk, use); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		fetch() // warm the connection and the buffer pool
	}
	const reads = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		fetch()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / (reads * block)
	t.Logf("a warm block read allocates %.4f B per block byte", perByte)
	if perByte >= 0.1 {
		t.Errorf("a warm 1 MiB block read allocates %.3f B per block byte, want < 0.1", perByte)
	}
}

// wireSamples is one value of every message type the daemons exchange —
// each Args/Reply of types.go — plus the gob bodies that ride inside
// them: the word-count and pi kernels' map partials and results, and
// AES job arguments.
func wireSamples() map[string]any {
	return map[string]any{
		"RegisterArgs": RegisterArgs{}, "RegisterReply": RegisterReply{},
		"ReplicateArgs": ReplicateArgs{}, "ReplicateReply": ReplicateReply{},
		"DecommissionDNArgs": DecommissionDNArgs{}, "DecommissionDNReply": DecommissionDNReply{},
		"ListDataNodesArgs": ListDataNodesArgs{}, "ListDataNodesReply": ListDataNodesReply{},
		"AllocateArgs": AllocateArgs{}, "AllocateReply": AllocateReply{},
		"ConfirmArgs": ConfirmArgs{}, "ConfirmReply": ConfirmReply{},
		"LookupArgs": LookupArgs{}, "LookupReply": LookupReply{},
		"ListArgs": ListArgs{}, "ListReply": ListReply{},
		"DeleteArgs": DeleteArgs{}, "DeleteReply": DeleteReply{},
		"PutArgs": PutArgs{}, "PutReply": PutReply{},
		"GetArgs": GetArgs{}, "GetReply": GetReply{},
		"FetchPartitionArgs": FetchPartitionArgs{}, "FetchPartitionReply": FetchPartitionReply{},
		"SubmitArgs": SubmitArgs{}, "SubmitReply": SubmitReply{},
		"HeartbeatArgs": HeartbeatArgs{}, "HeartbeatReply": HeartbeatReply{},
		"DecommissionTrackerArgs": DecommissionTrackerArgs{}, "DecommissionTrackerReply": DecommissionTrackerReply{},
		"ListTrackersArgs": ListTrackersArgs{}, "ListTrackersReply": ListTrackersReply{},
		"StatusArgs": StatusArgs{}, "StatusReply": StatusReply{},
		"KillArgs": KillArgs{}, "KillReply": KillReply{},
		"ListJobsArgs": ListJobsArgs{}, "ListJobsReply": ListJobsReply{},
		"wordCountPartial": wordCountPartial{}, "map[string]int64": map[string]int64{},
		"piPartial": piPartial{}, "PiResult": PiResult{}, "AESArgs": AESArgs{},
	}
}

// fill sets every exported field reachable from v to a non-zero value.
// Maps get one entry: gob writes a map in iteration order, so only a
// one-key map has a single encoding to compare.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(9)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("s")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(v.Index(i))
		}
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(k)
		fill(e)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	}
}

// TestPrimedMarshalMatchesGob: rpcnet's primed codecs change the cost of
// a body, not its bytes. For every message type, zero and filled,
// Marshal writes what a fresh gob.Encoder writes, and a warm Unmarshal
// decodes what a fresh gob.Decoder decodes. types.go is parsed so a new
// Args or Reply type cannot be left out, and a field rpcnet refuses (a
// func, chan or interface, which gob would skip or need registered)
// fails it.
func TestPrimedMarshalMatchesGob(t *testing.T) {
	samples := wireSamples()
	file, err := parser.ParseFile(token.NewFileSet(), "types.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name := range file.Scope.Objects {
		if _, ok := samples[name]; !ok && (strings.HasSuffix(name, "Args") || strings.HasSuffix(name, "Reply")) {
			t.Errorf("%s is missing from wireSamples", name)
		}
	}
	for name, sample := range samples {
		typ := reflect.TypeOf(sample)
		filled := reflect.New(typ).Elem()
		fill(filled)
		for _, v := range []any{reflect.Zero(typ).Interface(), filled.Interface()} {
			var fresh bytes.Buffer
			if err := gob.NewEncoder(&fresh).Encode(v); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				body, err := rpcnet.Marshal(v)
				if err != nil || !bytes.Equal(body, fresh.Bytes()) {
					t.Fatalf("%s round %d: Marshal %x (err %v), fresh encoder %x", name, round, body, err, fresh.Bytes())
				}
				primed, want := reflect.New(typ), reflect.New(typ)
				if err := rpcnet.Unmarshal(body, primed.Interface()); err != nil {
					t.Fatalf("%s round %d: %v", name, round, err)
				}
				if err := gob.NewDecoder(bytes.NewReader(body)).DecodeValue(want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(primed.Interface(), want.Interface()) {
					t.Fatalf("%s round %d: primed decode %+v, fresh %+v", name, round, primed.Elem(), want.Elem())
				}
			}
		}
	}
}

// TestSmallCallAllocationCeiling: a warm heartbeat-sized call allocates
// a small fixed amount — the call's channel and timer, gob's copy of
// each message, the decoded strings. With a fresh gob encoder and
// decoder per message it allocated about 29 KB, most of it compiling
// the types again.
func TestSmallCallAllocationCeiling(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the ceiling holds only without it")
	}
	srv, err := rpcnet.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	handle(srv, "Heartbeat", func(args HeartbeatArgs) (HeartbeatReply, error) {
		return HeartbeatReply{PurgeJobs: args.HeldJobs}, nil
	})
	c, err := rpcnet.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args := HeartbeatArgs{TrackerID: "tracker-3", LocalDataNode: "127.0.0.1:40001", ShuffleAddr: "127.0.0.1:40002",
		Device: DeviceCell, FreeSlots: 2, HeldJobs: []int64{4, 5}}
	call := func() {
		var reply HeartbeatReply
		if err := c.Call("Heartbeat", args, &reply); err != nil || len(reply.PurgeJobs) != 2 {
			t.Fatalf("heartbeat: %+v, err %v", reply, err)
		}
	}
	for i := 0; i < 20; i++ {
		call()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep rpcnet's buffer pools warm
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B allocated per warm heartbeat call", perCall)
	if perCall > 4<<10 {
		t.Errorf("a warm heartbeat call allocates %d B, want <= 4 KiB", perCall)
	}
}

// TestWriteFromRecyclesBlockBuffers: WriteFrom hands a block buffer back
// to its free list once the block's put returns, so 32 MiB in 1 MiB
// blocks allocates a window's worth of buffers, not one per block. The
// NameNode and DataNode are stubs that store nothing, so what is counted
// is the client.
func TestWriteFromRecyclesBlockBuffers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the ceiling holds only without it")
	}
	const block, size = 1 << 20, 32 << 20
	srv, err := rpcnet.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var next atomic.Int64
	handle(srv, "Allocate", func(args AllocateArgs) (AllocateReply, error) {
		return AllocateReply{Block: BlockInfo{ID: next.Add(1), Size: args.Size, Replicas: []string{srv.Addr()}}}, nil
	})
	handleTail(srv, "Put", func(PutArgs, []byte) (PutReply, []byte, error) { return PutReply{}, nil, nil })
	client, err := NewClient(srv.Addr(), "", block)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	data := make([]byte, size)
	write := func() {
		if n, err := client.WriteFrom("/f", bytes.NewReader(data), ""); err != nil || n != size {
			t.Fatalf("wrote %d of %d bytes, err %v", n, size, err)
		}
	}
	write() // dials and warms the frame buffers
	// The stub's frame buffers come from rpcnet's sync.Pools: a
	// collection mid-write empties them, and a buffer parked on another
	// P's private slot is out of reach. Either would count the stub's
	// refills against the client.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	write()
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("WriteFrom of %d MiB allocated %.2f MiB", size>>20, float64(allocated)/(1<<20))
	if limit := client.ingestWindow + 2*block; allocated > limit {
		t.Errorf("WriteFrom of %d MiB in %d KiB blocks allocated %d B, want <= %d (ingest window + 2 blocks)",
			size>>20, block>>10, allocated, limit)
	}
}
