package netmr

import (
	"slices"
	"strings"
	"testing"
	"time"

	"hetmr/internal/sched"
)

// The job records are driven here by hand: tasks are made up, reports
// are TaskResult literals, and the clock is a value. No daemon runs.

var testEpoch = time.Unix(1000, 0)

// testLease is the task lease openJob's boards run under.
const testLease = time.Minute

// openJob builds an opened record over n made-up map tasks; blocks,
// when given, are the tasks' input blocks (a data job's locality).
func openJob(t *testing.T, id int64, spec JobSpec, n int, opts sched.Options, blocks ...BlockInfo) *jobRecord {
	t.Helper()
	rec, err := newJob(spec)
	if err != nil {
		t.Fatalf("newJob(%+v): %v", spec, err)
	}
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{TaskID: i, Kernel: spec.Kernel}
		if i < len(blocks) {
			tasks[i].Block = blocks[i]
		}
	}
	if err := rec.open(id, tasks, testLease, opts); err != nil {
		t.Fatalf("open: %v", err)
	}
	return rec
}

// runPhase grants and completes every pending task of phase pi on
// worker, each stored at the address addrOf names.
func runPhase(t *testing.T, rec *jobRecord, pi int, worker string, addrOf func(task int) string) {
	t.Helper()
	ph := &rec.phases[pi]
	for _, i := range ph.board.Assign(worker, len(ph.tasks), testEpoch, nil) {
		res := TaskResult{JobID: rec.id, TaskID: i, Reduce: pi > 0, ShuffleAddr: addrOf(i)}
		if pi == 0 && len(rec.phases) > 1 {
			res.PartBytes = make([]int64, len(rec.final().tasks))
			res.PartBytes[i%len(res.PartBytes)] = int64(100 * (i + 1))
		}
		if _, fatal := rec.record(worker, res); fatal != "" {
			t.Fatalf("record(%+v): fatal %q", res, fatal)
		}
	}
}

func TestNewJobRoutesByKernelAndValidates(t *testing.T) {
	for _, tc := range []struct {
		spec      JobSpec
		phases    int
		streamOut bool
	}{
		{JobSpec{Kernel: "pi", Samples: 10}, 1, false},
		{JobSpec{Kernel: "aes-ctr", Input: "/f"}, 1, true},
		{JobSpec{Kernel: "wordcount", Input: "/f", NumReducers: 3}, 2, false},
		{JobSpec{Kernel: "sort", Input: "/f"}, 2, true},
	} {
		rec, err := newJob(tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.spec.Kernel, err)
			continue
		}
		if len(rec.phases) != tc.phases || rec.streamOut != tc.streamOut {
			t.Errorf("%s: %d phases, streamOut %v; want %d, %v", tc.spec.Kernel, len(rec.phases), rec.streamOut, tc.phases, tc.streamOut)
		}
		if rec.tenant != DefaultTenant || rec.spec.Mapper != MapperCell {
			t.Errorf("%s: tenant %q mapper %q, want the defaults filled in", tc.spec.Kernel, rec.tenant, rec.spec.Mapper)
		}
	}
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Kernel: "nope"}, "nope"},
		{JobSpec{Kernel: "wordcount", Samples: 10}, "input file only"},
		{JobSpec{Kernel: "wordcount", Input: "/f", NumReducers: -1}, "NumReducers"},
		{JobSpec{Kernel: "sort", Input: "/f", NumReducers: 2}, "split keys"},
		{JobSpec{Kernel: "sort", Input: "/f", NumReducers: 3, SplitKeys: [][]byte{{2}, {1}}}, "not sorted"},
		{JobSpec{Kernel: "pi", Samples: 10, Mapper: "fortran"}, "mapper variant"},
	} {
		if _, err := newJob(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("newJob(%+v) = %v, want an error mentioning %q", tc.spec, err, tc.want)
		}
	}
}

func TestRecordIsOneArmForBothPhases(t *testing.T) {
	rec := openJob(t, 7, JobSpec{Kernel: "wordcount", Input: "/f", NumReducers: 2}, 3, sched.Options{})
	if got := rec.phases[0].board.Affinity(); got != DeviceCell {
		t.Errorf("map board affinity = %q, want %q for the default mapper", got, DeviceCell)
	}
	if got := rec.final().board.Affinity(); got != DeviceHost {
		t.Errorf("reduce board affinity = %q, want %q", got, DeviceHost)
	}
	// Reports for a phase the job lacks, or a task it lacks, are dropped.
	pi := openJob(t, 8, JobSpec{Kernel: "pi", Samples: 10}, 2, sched.Options{})
	if n, fatal := pi.record("w", TaskResult{TaskID: 0, Reduce: true, Output: []byte("x")}); n != 0 || fatal != "" || pi.phases[0].done != 0 {
		t.Error("a reduce report moved a map-only job")
	}
	if n, _ := rec.record("w", TaskResult{TaskID: 99, Output: []byte("x")}); n != 0 {
		t.Error("an out-of-range task report was counted")
	}

	runPhase(t, rec, 0, "w0", func(i int) string { return "store-" + string(rune('a'+i%2)) })
	if !rec.phases[0].complete() || rec.redHome == nil {
		t.Fatalf("after every map: done %d, redHome %v; want complete and planned", rec.phases[0].done, rec.redHome)
	}
	// A late duplicate of a finished task carries nothing.
	if n, _ := rec.record("w9", TaskResult{TaskID: 0, ShuffleAddr: "elsewhere"}); n != 0 || rec.phases[0].loc[0] != "store-a" {
		t.Error("a late duplicate overwrote the winner")
	}
	// A reduce task is handed the current map output locations.
	red := rec.task(1, 1)
	if !red.Reduce || len(red.Inputs) != 3 || red.Inputs[2] != (MapOutputRef{MapTask: 2, Part: 1, Addr: "store-a"}) {
		t.Fatalf("reduce task = %+v", red)
	}
	// A structured kernel's partials ride the report and are metered.
	rec.final().board.Assign("w1", 2, testEpoch, nil)
	n, fatal := rec.record("w1", TaskResult{TaskID: 1, Reduce: true, Output: []byte("partial")})
	if n != int64(len("partial")) || fatal != "" || string(rec.partials[1]) != "partial" {
		t.Fatalf("reduce report: carried %d fatal %q partials %q", n, fatal, rec.partials)
	}
	if done, total := rec.progress(); done != 4 || total != 5 {
		t.Errorf("progress = %d/%d, want 4/5", done, total)
	}
}

func TestFailSpendsBudgetOnlyOnTaskErrors(t *testing.T) {
	rec := openJob(t, 3, JobSpec{Kernel: "pi", Samples: 10}, 1, sched.Options{MaxAttempts: 2})
	board := rec.phases[0].board
	for attempt := 1; attempt <= 2; attempt++ {
		board.Assign("w", 1, testEpoch, nil)
		_, fatal := rec.record("w", TaskResult{TaskID: 0, Err: "boom"})
		// A redelivered copy of the same failure is ignored whole.
		if _, again := rec.record("w", TaskResult{TaskID: 0, Err: "boom"}); again != "" {
			t.Fatal("a redelivered failure report was charged")
		}
		if want := attempt == 2; (fatal != "") != want {
			t.Fatalf("attempt %d: fatal = %q, want exhausted %v", attempt, fatal, want)
		}
		if fatal != "" && (!strings.Contains(fatal, "map task 0 of job 3") || !strings.Contains(fatal, "boom")) {
			t.Errorf("fatal = %q, want it to name the phase, task, job and cause", fatal)
		}
	}
}

// TestLostStoreReopensBothPhases is the case the liveness sweep's
// reopenLostOutputs and failAttempt's inline loop each half-covered: a
// lost store reopens exactly the tasks whose stored output it held — in
// the map phase and in a byte-stream final phase — and un-plans the
// reduces; everything stored elsewhere stays done.
func TestLostStoreReopensBothPhases(t *testing.T) {
	spec := JobSpec{Kernel: "sort", Input: "/f", NumReducers: 2, SplitKeys: [][]byte{{0x80}}}
	rec := openJob(t, 1, spec, 4, sched.Options{})
	store := func(i int) string { return []string{"dead", "live"}[i%2] }
	runPhase(t, rec, 0, "w0", store)
	runPhase(t, rec, 1, "w1", store)
	if !rec.final().complete() || rec.redHome == nil {
		t.Fatal("setup: job should be fully stored and planned")
	}
	if rec.outputs() != nil {
		t.Error("outputs served before the job turned terminal")
	}

	rec.reopenLost("")
	if !rec.final().complete() || !rec.phases[0].complete() {
		t.Fatal("the empty address reopened tasks: it marks an unfinished task, not a store")
	}

	rec.reopenLost("dead")
	maps, reds := &rec.phases[0], rec.final()
	if !slices.Equal(maps.loc, []string{"", "live", "", "live"}) || maps.done != 2 {
		t.Errorf("map phase after the loss: loc %v done %d, want tasks 0 and 2 reopened", maps.loc, maps.done)
	}
	if !slices.Equal(reds.loc, []string{"", "live"}) || reds.done != 1 {
		t.Errorf("final phase after the loss: loc %v done %d, want piece 0 reopened", reds.loc, reds.done)
	}
	if rec.redHome != nil || rec.partBytes[0] != nil || rec.partBytes[1] == nil {
		t.Errorf("reduce plan after the loss: redHome %v partBytes %v, want it dropped with the lost sizes", rec.redHome, rec.partBytes)
	}
	// The boards agree: exactly the reopened tasks are assignable again,
	// and the reduce phase stays shut until map coverage is back.
	if got := maps.board.Assign("w2", 4, testEpoch, nil); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("reassignable maps = %v, want [0 2]", got)
	}
	if _, ok := rec.grant(DeviceHost, HeartbeatArgs{TrackerID: "w3"}, testEpoch, false, false); ok {
		t.Error("a reduce was granted while map outputs are missing")
	}

	// Reducers' repeated fetch failures reach the same function: the
	// second report blaming a store declares it lost.
	rec = openJob(t, 2, spec, 4, sched.Options{})
	runPhase(t, rec, 0, "w0", store)
	for n := 1; n <= fetchFailThreshold; n++ {
		rec.final().board.Assign("w1", 2, testEpoch, nil)
		if _, fatal := rec.record("w1", TaskResult{TaskID: 0, Reduce: true, Err: "fetch", BadAddr: "dead"}); fatal != "" {
			t.Fatalf("a fetch failure spent the task's budget: %q", fatal)
		}
		if lost := !rec.phases[0].complete(); lost != (n == fetchFailThreshold) {
			t.Fatalf("after %d fetch-failure reports: maps reopened = %v", n, lost)
		}
	}
	if !slices.Equal(rec.phases[0].loc, []string{"", "live", "", "live"}) {
		t.Errorf("map loc after the fetch failures = %v", rec.phases[0].loc)
	}
}

func TestOutputsAndGuard(t *testing.T) {
	rec := openJob(t, 5, JobSpec{Kernel: "aes-ctr", Input: "/f"}, 2, sched.Options{})
	runPhase(t, rec, 0, "w0", func(i int) string { return "s" })
	rec.done = true
	want := []MapOutputRef{{MapTask: 0, Part: -1, Addr: "s"}, {MapTask: 1, Part: -1, Addr: "s"}}
	if got := rec.outputs(); !slices.Equal(got, want) {
		t.Errorf("outputs = %v, want %v", got, want)
	}
	if !rec.guardsOutputs() {
		t.Error("an unreleased streamed result is not guarded")
	}
	rec.released = true
	if rec.guardsOutputs() {
		t.Error("a released result is still guarded")
	}
	rec.released, rec.failed = false, "killed"
	if rec.guardsOutputs() || rec.outputs() != nil {
		t.Error("a failed job guards or serves outputs")
	}
}
