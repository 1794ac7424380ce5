package engine

import (
	"errors"
	"strings"
	"testing"
)

func TestBackendsRegistered(t *testing.T) {
	got := Backends()
	want := []string{"live", "net", "sim"}
	if len(got) != len(want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v (sorted)", got, want)
		}
	}
}

func TestNewUnknownBackend(t *testing.T) {
	_, err := New("hadoop-on-mars", Config{})
	if err == nil {
		t.Fatal("want error for unknown backend")
	}
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("error %v does not wrap ErrUnknownBackend", err)
	}
	// The error must name the known backends so callers can self-serve.
	for _, name := range []string{"live", "sim", "net"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list backend %q", err, name)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("live", func(Config) (Runner, error) { return nil, nil })
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Workers: -1},
		{BlockSize: -5},
		{Mapper: "fortran"},
		{AccelFraction: 1.5},
	}
	for _, cfg := range cases {
		if _, err := New("live", cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

func TestJobValidate(t *testing.T) {
	bad := []*Job{
		{Kind: "frobnicate"},
		{Kind: Wordcount},                   // no input
		{Kind: Pi},                          // no samples
		{Kind: Encrypt, Input: []byte("x")}, // no key
		{Kind: Encrypt, Input: []byte("x"), Key: []byte("short")}, // bad key
	}
	for _, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("job %+v validated, want error", j)
		}
	}
	good := []*Job{
		{Kind: Wordcount, Input: []byte("hello world")},
		{Kind: Sort, InputBytes: 1000},
		{Kind: Pi, Samples: 100},
		{Kind: Encrypt, Input: []byte("x"), Key: []byte("0123456789abcdef")},
	}
	for _, j := range good {
		if err := j.Validate(); err != nil {
			t.Errorf("job %+v rejected: %v", j, err)
		}
	}
}

func TestPiTasksCanonicalDecomposition(t *testing.T) {
	tasks := (&Job{Samples: 10, Tasks: 4}).piTasks(1)
	if len(tasks) != 4 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	// 10 over 4: 3,3,2,2.
	wantSamples := []int64{3, 3, 2, 2}
	var total int64
	for i, task := range tasks {
		if task.Samples != wantSamples[i] {
			t.Fatalf("task %d: %d samples, want %d", i, task.Samples, wantSamples[i])
		}
		total += task.Samples
	}
	if total != 10 {
		t.Fatalf("decomposition drew %d samples, want 10", total)
	}
	// Distinct seed domains.
	if tasks[0].Seed == tasks[1].Seed {
		t.Fatal("tasks share a seed domain")
	}
}
