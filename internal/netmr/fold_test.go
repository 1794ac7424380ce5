package netmr

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// A structured job's result is folded on the client: the JobTracker
// ends the job on the report that completes its last phase, keeps the
// partials, and serves them in its Status reply; Client.WaitStatus runs
// the kernel's Reduce over them.

var errReduceBoom = errors.New("reduce boom")

func init() {
	// A structured kernel whose Reduce always fails.
	RegisterKernel("failing-reduce", MapKernel{
		Map:    func(Task, []byte) ([]byte, error) { return []byte("partial"), nil },
		Reduce: func([][]byte) ([]byte, error) { return nil, errReduceBoom },
	})
}

// TestLastReportEndsTheJobInItsBeat drives jt.heartbeat with an
// injected clock: the report that completes a structured job's last
// phase makes it done within the same call, a Kill before that report
// wins, and a Kill after it finds the job already done.
func TestLastReportEndsTheJobInItsBeat(t *testing.T) {
	// Compute jobs never touch the NameNode, so a dead address is fine.
	jt, err := StartJobTracker("127.0.0.1:0", "127.0.0.1:1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer jt.Close()
	now := time.Unix(1000, 0)
	// start submits a two-task pi job and grants both its tasks.
	start := func() int64 {
		t.Helper()
		rep, err := jt.handleSubmit(SubmitArgs{Spec: JobSpec{Name: "two", Kernel: "pi", Samples: 10, NumTasks: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if got := jt.heartbeat(HeartbeatArgs{TrackerID: "t", FreeSlots: 2}, now); len(got.Tasks) != 2 {
			t.Fatalf("granted %d tasks, want 2", len(got.Tasks))
		}
		return rep.JobID
	}
	report := func(id int64, task int) {
		out := []byte{byte('a' + task)}
		jt.heartbeat(HeartbeatArgs{TrackerID: "t", Completed: []TaskResult{{JobID: id, TaskID: task, Output: out}}}, now)
	}
	status := func(id int64) StatusReply {
		t.Helper()
		st, err := jt.handleStatus(StatusArgs{JobID: id})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	id := start()
	report(id, 1)
	if st := status(id); st.Done || st.Partials != nil {
		t.Fatalf("after one of two reports: %+v, want running with no partials served", st)
	}
	report(id, 0)
	st := status(id)
	if !st.Done || st.Err != "" || st.Kernel != "pi" || !slices.EqualFunc(st.Partials, [][]byte{[]byte("a"), []byte("b")}, bytes.Equal) {
		t.Fatalf("after the last report: %+v, want done with partials [a b] in task order", st)
	}
	if kill, err := jt.handleKill(KillArgs{JobID: id}); err != nil || !kill.AlreadyDone {
		t.Errorf("Kill after the last report = %+v, %v, want AlreadyDone", kill, err)
	}
	if st := status(id); st.Err != "" || len(st.Partials) != 2 {
		t.Errorf("a Kill after completion changed the job: %+v", st)
	}

	id = start()
	report(id, 0)
	if kill, err := jt.handleKill(KillArgs{JobID: id}); err != nil || kill.AlreadyDone {
		t.Fatalf("Kill of a running job = %+v, %v", kill, err)
	}
	report(id, 1)
	if st := status(id); !st.Done || !strings.Contains(st.Err, "killed") || st.Partials != nil {
		t.Errorf("a report after the Kill: %+v, want the kill to stand and no partials", st)
	}
}

// TestStatusServesPartialsForTheClientFold: on a finished pi job and a
// finished wordcount job, a raw held Status lists the final-phase
// partials in task order and no Result, and WaitStatus's Result is the
// kernel's Reduce over exactly those partials.
func TestStatusServesPartialsForTheClientFold(t *testing.T) {
	c := startTestCluster(t, 2, 1024)
	jtc, err := rpcnet.Dial(c.JT.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer jtc.Close()
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog again and again "), 100)
	if err := c.Client.WriteFile("/text", text, ""); err != nil {
		t.Fatal(err)
	}
	const samples, tasks, reducers = 10_000, 4, 3
	splits := kernels.SplitSamples(samples, tasks, kernels.DefaultSeed)
	for _, tc := range []struct {
		spec JobSpec
		n    int
		// inOrder checks that partial i is task i's output.
		inOrder func(i int, partial []byte) error
	}{
		{JobSpec{Name: "pi", Kernel: "pi", Samples: samples, NumTasks: tasks}, tasks,
			func(i int, partial []byte) error {
				var p piPartial
				if err := rpcnet.Unmarshal(partial, &p); err != nil {
					return err
				}
				if want := kernels.CountInside(splits[i].Seed, splits[i].Samples); p.Inside != want {
					return errors.New("inside count is another task's")
				}
				return nil
			}},
		{JobSpec{Name: "wc", Kernel: "wordcount", Input: "/text", NumReducers: reducers}, reducers,
			func(i int, partial []byte) error {
				var stray error
				err := kernels.EachWordRun(partial, func(w []byte, _ int64) {
					if kernels.PartitionIndexString(w, reducers) != i {
						stray = errors.New("word " + string(w) + " belongs to another partition")
					}
				})
				return cmp.Or(err, stray)
			}},
	} {
		id, err := c.Client.Submit(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Client.WaitStatus(id, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		raw, _, err := heldStatus(jtc, id, maxStatusHold)
		if err != nil {
			t.Fatal(err)
		}
		if !raw.Done || raw.Kernel != tc.spec.Kernel || len(raw.Partials) != tc.n || raw.Result != nil {
			t.Fatalf("%s: raw Status %+v, want done, its kernel named, %d partials and no Result", tc.spec.Kernel, raw, tc.n)
		}
		for i, p := range raw.Partials {
			if err := tc.inOrder(i, p); err != nil {
				t.Errorf("%s: partial %d: %v", tc.spec.Kernel, i, err)
			}
		}
		kern, _ := lookupKernel(tc.spec.Kernel)
		want, err := kern.Reduce(raw.Partials)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Result, want) {
			t.Errorf("%s: WaitStatus Result %x, want Reduce over the partials %x", tc.spec.Kernel, st.Result, want)
		}
	}
}

// TestReduceErrorIsTheWaitsError: a Reduce that fails is the error
// WaitStatus returns — the job itself finished, so the JobTracker
// records no failure and runs the next job.
func TestReduceErrorIsTheWaitsError(t *testing.T) {
	c := startTestCluster(t, 1, 1024)
	id, err := c.Client.Submit(JobSpec{Name: "boom", Kernel: "failing-reduce", Samples: 2, NumTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.WaitStatus(id, 10*time.Second); !errors.Is(err, errReduceBoom) {
		t.Fatalf("WaitStatus = %v, want the Reduce error", err)
	}
	if st, err := c.Client.Status(id); err != nil || !st.Done || st.Err != "" {
		t.Errorf("JobTracker view of the job: %+v, %v, want done with no error", st, err)
	}
	if _, err := submitAndWait(c.Client, JobSpec{Name: "next", Kernel: "pi", Samples: 100, NumTasks: 2}, 10*time.Second); err != nil {
		t.Errorf("the job after a failed Reduce: %v", err)
	}
}
