// Package mustclose is the fixture for the mustclose analyzer: Res
// and Svc stand in for rpcnet.Client / netmr.Cluster, and each
// function is one positive (want) or negative (clean) case.
package mustclose

// Res is a closeable resource.
type Res struct{}

// Close releases the resource.
func (r *Res) Close() error { return nil }

// Use is a neutral method: calling it neither closes nor escapes r.
func (r *Res) Use() {}

// NewRes constructs a Res.
func NewRes() *Res { return &Res{} }

// OpenRes constructs a Res, fallibly.
func OpenRes() (*Res, error) { return &Res{}, nil }

// Svc is a stoppable service.
type Svc struct{}

// Stop halts the service.
func (s *Svc) Stop() {}

// StartSvc constructs a running Svc.
func StartSvc() *Svc { return &Svc{} }

func sink(r *Res) {}

func cond() bool { return false }

func discarded() {
	NewRes() // want `result of NewRes is discarded`
}

func blankAssigned() {
	_ = StartSvc() // want `result of StartSvc is assigned to _`
}

func neverClosed() {
	r := NewRes() // want `never closed`
	r.Use()
}

func deferClosedClean() {
	r := NewRes()
	defer r.Close()
	r.Use()
}

func deferredFuncLitClean() {
	r := NewRes()
	defer func() {
		r.Close()
	}()
	r.Use()
}

func errGuardClean() error {
	r, err := OpenRes()
	if err != nil {
		return err // clean: r is nil on this path
	}
	defer r.Close()
	r.Use()
	return nil
}

func earlyReturnLeak() error {
	r, err := OpenRes()
	if err != nil {
		return err
	}
	if cond() {
		return nil // want `may leak`
	}
	return r.Close()
}

func returnedClean() *Res {
	r := NewRes()
	return r // clean: ownership moves to the caller
}

func escapesToCallClean() {
	r := NewRes()
	sink(r) // clean: ownership transferred
}

func escapesToStructClean() *struct{ R *Res } {
	r := NewRes()
	return &struct{ R *Res }{R: r} // clean: stored and returned
}

func stopFamilyClean() {
	s := StartSvc()
	defer s.Stop()
}

func suppressed() {
	NewRes() //hetlint:ignore mustclose fixture: proves the directive works
}
