package netmr

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"hetmr/internal/sched"
)

// phase is one wave of a job's tasks and the dynamic scheduler's board
// tracking their leases, attempts and completions.
type phase struct {
	tasks []Task
	board *sched.Board
	done  int
	// loc is where each task's stored output lives — the shuffle
	// partitions of a map phase, the parked pieces of a byte-stream final
	// phase; "" until the task completes. Nil when the phase's outputs
	// ride heartbeats instead (a structured kernel's partials).
	loc []string
}

func (ph *phase) complete() bool { return ph.done == len(ph.tasks) }

// jobRecord is one submitted job: a list of phases — the map phase, and
// for a shuffle job (the kernel has Partition+Merge and there is an
// input) a reduce phase whose tasks become assignable once every map
// partition is in place. The job's route is read off the kernel table
// (see MapKernel); nothing the submitter sets picks it.
//
// Like every JobTracker component a record holds no lock of its own
// (jt.mu guards it), does no I/O, and takes the current time as a
// parameter where it needs one.
type jobRecord struct {
	id     int64
	tenant string
	spec   JobSpec
	phases []phase
	// streamOut: the kernel has no Reduce, so final-phase outputs stay
	// in the worker trackers' stores; the final phase's loc records each
	// piece's address, Status serves the refs, and the stores free them
	// only after the client releases the job (Kill once it is done).
	// Otherwise partials holds the final-phase outputs themselves, kept
	// until the record is retired: the client folds them with the
	// kernel's Reduce.
	streamOut bool
	partials  [][]byte
	released  bool

	// partBytes records each winning map attempt's per-partition stored
	// sizes (TaskResult.PartBytes) of a shuffle job; once every map is
	// done they drive the LPT reduce order and the redHome locality hints.
	partBytes [][]int64
	// redHome is, per reduce partition, the shuffle address holding the
	// most of its bytes — the reduce-grant locality hint. Nil until
	// every map partition (with size data) is in place.
	redHome []string
	// fetchFails counts distinct reduce-fetch failure reports per
	// shuffle-store address; a store is declared lost (its tasks
	// reopened) only at fetchFailThreshold, so one transient dial error
	// never discards finished map work.
	fetchFails map[string]int

	done   bool
	failed string
	// terminal is closed by terminate — the one edge every finished,
	// failed or killed job crosses — and is what a held Status call
	// parks on.
	terminal chan struct{}
}

// newJob validates spec at the API boundary and returns its record,
// routed but not yet expanded into tasks (open does that, once the
// JobTracker has looked the input up and issued an ID).
func newJob(spec JobSpec) (*jobRecord, error) {
	kern, err := lookupKernel(spec.Kernel)
	if err != nil {
		return nil, err
	}
	// The route comes off the kernel table alone. A kernel with the
	// shuffle pair always shuffles its data jobs (NumReducers 0 means 1);
	// a kernel with no Reduce always parks its final-phase outputs.
	shuffle := kern.Partition != nil && kern.Merge != nil && spec.Input != ""
	streamOut := kern.Reduce == nil
	if !shuffle && kern.Map == nil {
		return nil, fmt.Errorf("netmr: job %q: kernel %q runs over an input file only", spec.Name, spec.Kernel)
	}
	// A negative reduce count would otherwise surface as a
	// partition-hash divide-by-zero deep inside a mapper.
	if spec.NumReducers < 0 {
		return nil, fmt.Errorf("netmr: job %q: NumReducers must be >= 0, got %d",
			spec.Name, spec.NumReducers)
	}
	spec.NumReducers = max(spec.NumReducers, 1)
	// Range partitioning: exactly reducers-1 sorted split keys. A mismatch
	// caught here would otherwise surface as a per-mapper partition-count
	// error after the job already holds scheduler state. A byte-stream
	// shuffle must bring them: its result is the partitions concatenated
	// in order, and hash partitions are not in key order.
	n := len(spec.SplitKeys)
	if (n > 0 || (shuffle && streamOut)) && n != spec.NumReducers-1 {
		return nil, fmt.Errorf("netmr: job %q: %d split keys for %d reducers (want NumReducers-1)",
			spec.Name, n, spec.NumReducers)
	}
	for i := 1; i < n; i++ {
		if bytes.Compare(spec.SplitKeys[i-1], spec.SplitKeys[i]) > 0 {
			return nil, fmt.Errorf("netmr: job %q: split keys are not sorted", spec.Name)
		}
	}
	if spec.Mapper != "" && spec.Mapper != MapperCell && spec.Mapper != MapperJava {
		return nil, fmt.Errorf("netmr: job %q: unknown mapper variant %q (%s|%s)",
			spec.Name, spec.Mapper, MapperCell, MapperJava)
	}
	if spec.Mapper == "" {
		spec.Mapper = MapperCell
	}
	if spec.Tenant == "" {
		spec.Tenant = DefaultTenant
	}
	rec := &jobRecord{
		tenant:    spec.Tenant,
		spec:      spec,
		phases:    make([]phase, 1, 2),
		streamOut: streamOut,
		terminal:  make(chan struct{}),
	}
	if shuffle {
		rec.phases = rec.phases[:2]
	}
	return rec, nil
}

// open issues the job its ID and builds its phases over the expanded
// map tasks. Map tasks prefer accelerated trackers when the job
// offloads; reduce tasks are host merges either way. The affinity
// steers the grant order only — mismatched trackers still take the work
// before idling.
func (rec *jobRecord) open(id int64, tasks []Task, lease time.Duration, opts sched.Options) error {
	rec.id = id
	spec := rec.spec
	shuffle := len(rec.phases) == 2
	for i := range tasks {
		tasks[i].JobID = id
		tasks[i].Mapper = spec.Mapper
		if shuffle {
			tasks[i].NumParts = spec.NumReducers
			tasks[i].SplitKeys = spec.SplitKeys
		}
	}
	rec.phases[0].tasks = tasks
	if shuffle {
		reduces := make([]Task, spec.NumReducers)
		for p := range reduces {
			reduces[p] = Task{JobID: id, TaskID: p, Kernel: spec.Kernel, Args: spec.Args, Reduce: true, Mapper: spec.Mapper}
		}
		rec.phases[1].tasks = reduces
		rec.partBytes = make([][]int64, len(tasks))
		rec.fetchFails = make(map[string]int)
	}
	for pi := range rec.phases {
		ph := &rec.phases[pi]
		opts.Affinity = DeviceHost
		if pi == 0 && spec.Mapper == MapperCell {
			opts.Affinity = DeviceCell
		}
		var err error
		if ph.board, err = sched.NewBoard(len(ph.tasks), lease, opts); err != nil {
			return err
		}
		if final := pi == len(rec.phases)-1; !final || rec.streamOut {
			ph.loc = make([]string, len(ph.tasks))
		} else {
			rec.partials = make([][]byte, len(ph.tasks))
		}
	}
	return nil
}

// final is the job's last phase.
func (rec *jobRecord) final() *phase { return &rec.phases[len(rec.phases)-1] }

// progress counts finished and total tasks across the phases.
func (rec *jobRecord) progress() (completed, total int) {
	for pi := range rec.phases {
		completed += rec.phases[pi].done
		total += len(rec.phases[pi].tasks)
	}
	return completed, total
}

// guardsOutputs reports whether the record still stands between the
// trackers' stores and a result nobody has read: a streamed job that
// succeeded and is not yet released. Such a job is neither purged from
// the stores nor forgotten by the JobTracker.
func (rec *jobRecord) guardsOutputs() bool {
	return rec.streamOut && !rec.released && rec.failed == ""
}

// result is a finished structured job's final-phase partials in task
// order, for the client's Reduce.
func (rec *jobRecord) result() [][]byte {
	if !rec.done || rec.failed != "" {
		return nil
	}
	return rec.partials
}

// outputs lists a finished streamed job's stored pieces in task order —
// its result.
func (rec *jobRecord) outputs() []MapOutputRef {
	if !rec.streamOut || !rec.done || rec.failed != "" {
		return nil
	}
	slot := mapOutputKey
	if len(rec.phases) > 1 {
		slot = streamedReduceKey
	}
	refs := make([]MapOutputRef, len(rec.final().loc))
	for i, addr := range rec.final().loc {
		key := slot(i)
		refs[i] = MapOutputRef{MapTask: key.mapTask, Part: key.part, Addr: addr}
	}
	return refs
}

// task materializes task i of phase pi; a reduce task gets the current
// map output locations (the grant pass guarantees every map is done).
func (rec *jobRecord) task(pi, i int) Task {
	t := rec.phases[pi].tasks[i]
	if pi > 0 {
		maps := rec.phases[0].loc
		t.Inputs = make([]MapOutputRef, len(maps))
		for m, addr := range maps {
			t.Inputs[m] = MapOutputRef{MapTask: m, Part: i, Addr: addr}
		}
	}
	return t
}

// record folds one task report into the job. It returns the winning
// output bytes the report carried (a structured partial; stored outputs
// report a location only) and, when the task just exhausted its attempt
// budget, the job's terminal error.
func (rec *jobRecord) record(worker string, res TaskResult) (carried int64, fatal string) {
	pi := 0
	if res.Reduce {
		pi = 1
	}
	if pi >= len(rec.phases) {
		return 0, ""
	}
	ph := &rec.phases[pi]
	if res.TaskID < 0 || res.TaskID >= len(ph.tasks) {
		return 0, ""
	}
	if res.Err != "" {
		return 0, rec.fail(pi, worker, res)
	}
	// The board keeps the first finished attempt of a task and discards
	// late duplicates (speculative or re-issued after a lease expiry).
	if !ph.board.Complete(res.TaskID, worker) {
		return 0, ""
	}
	if ph.loc != nil {
		ph.loc[res.TaskID] = res.ShuffleAddr
	} else {
		rec.partials[res.TaskID] = res.Output
	}
	ph.done++
	if ph != rec.final() {
		rec.partBytes[res.TaskID] = res.PartBytes
		if ph.complete() {
			rec.planReduces()
		}
	} else if pi > 0 {
		// This reduce fetched from every shuffle store, so any
		// accumulated transient-blame against them is stale.
		clear(rec.fetchFails)
	}
	return int64(len(res.Output)), ""
}

// fetchFailThreshold is how many reduce-fetch failure reports an
// address accumulates before its outputs are declared lost — one
// transient error re-issues only the reduce attempt, repeated ones
// trigger the shuffle re-run (Hadoop's repeated-notification rule).
const fetchFailThreshold = 2

// fail handles a reported task failure, immediately freeing the task
// for re-issue. A reduce fetch failure (BadAddr set) is an
// infrastructure failure: it never spends the task's failure budget,
// and once fetchFailThreshold distinct reports blame one shuffle
// store, that store's tasks reopen for the shuffle re-run. A genuine
// task error spends the budget, and exhausting it is the job's terminal
// error, returned. Redelivered reports (heartbeats retry after lost
// replies) are ignored whole.
func (rec *jobRecord) fail(pi int, worker string, res TaskResult) (fatal string) {
	board := rec.phases[pi].board
	if res.BadAddr != "" && len(rec.phases) > 1 {
		if !board.Release(res.TaskID, worker) {
			return "" // duplicate or stale report: the attempt is already resolved
		}
		rec.fetchFails[res.BadAddr]++
		if rec.fetchFails[res.BadAddr] >= fetchFailThreshold {
			delete(rec.fetchFails, res.BadAddr)
			rec.reopenLost(res.BadAddr)
		}
		return ""
	}
	if dropped, exhausted := board.Fail(res.TaskID, worker); dropped && exhausted {
		return fmt.Sprintf("netmr: %s task %d of job %d failed after max attempts: %s",
			[2]string{"map", "reduce"}[pi], res.TaskID, rec.id, res.Err)
	}
	return ""
}

// reopenLost reopens every task whose stored output lived in the store
// at addr — shuffle partitions and parked final pieces alike are
// recomputed elsewhere — whether the liveness sweep declared the store's
// tracker dead or reducers' repeated fetch failures did. A lost map
// output also drops the reduce plan: the reopened maps will land
// somewhere else, so sizes and homes are recomputed when coverage is
// complete again.
func (rec *jobRecord) reopenLost(addr string) {
	if addr == "" {
		return // "" marks a task with no stored output yet, not a store
	}
	for pi := range rec.phases {
		ph := &rec.phases[pi]
		for i, loc := range ph.loc {
			if loc != addr {
				continue
			}
			ph.board.Reopen(i)
			ph.loc[i] = ""
			ph.done--
			if ph != rec.final() {
				rec.partBytes[i] = nil
				rec.final().board.SetOrder(nil)
				rec.redHome = nil
			}
		}
	}
}

// planReduces installs the reduce-phase plan once every map partition
// is in place: the reduce board's scan order becomes heaviest-partition
// first (LPT — a skewed range starts immediately instead of
// serializing the tail), and redHome records, per partition, the
// shuffle address holding the most of its bytes — the locality hint the
// grant pass serves reducers by, so the heaviest fetch stream is a
// local store read. A size report of the wrong length (it arrives off
// the wire) leaves the board in index order instead of being indexed.
func (rec *jobRecord) planReduces() {
	r := len(rec.final().tasks)
	totals := make([]int64, r)
	homeBytes := make([]map[string]int64, r)
	for p := range homeBytes {
		homeBytes[p] = make(map[string]int64)
	}
	for m, parts := range rec.partBytes {
		if len(parts) != r {
			return // malformed size report: keep index order, no hints
		}
		for p, n := range parts {
			totals[p] += n
			homeBytes[p][rec.phases[0].loc[m]] += n
		}
	}
	order := make([]int, r)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return totals[order[a]] > totals[order[b]] })
	rec.final().board.SetOrder(order)
	rec.redHome = make([]string, r)
	for p := range rec.redHome {
		best, bestN := "", int64(-1)
		addrs := make([]string, 0, len(homeBytes[p]))
		for a := range homeBytes[p] {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs) // deterministic tie-break
		for _, a := range addrs {
			if homeBytes[p][a] > bestN {
				best, bestN = a, homeBytes[p][a]
			}
		}
		rec.redHome[p] = best
	}
}
