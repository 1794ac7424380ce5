package sched

import "sync"

// FairShare is the multi-board arbiter of a master serving several
// tenants from one worker fleet: a weighted deficit round-robin over
// tenant names. Each tenant accrues credit ("deficit") in proportion to
// its weight; granting a task spends one credit; when no eligible
// tenant holds a full credit, every eligible tenant is refilled by its
// weight at once. Over any contended interval the grant counts
// therefore converge to the weight ratios — Hadoop's FairScheduler
// discipline, reduced to its scheduling core.
//
// The arbiter is deliberately ignorant of boards and jobs: the master
// keeps one Board per job phase (Assign/Speculate unchanged), asks
// FairShare which tenant to serve next, and applies its usual
// affinity/pending/speculative passes within that tenant's jobs. Ties
// break toward the lexicographically smallest name, so grant order is
// deterministic for tests.
//
// FairShare is safe for concurrent use, matching Board.
type FairShare struct {
	mu      sync.Mutex
	weights map[string]float64
	deficit map[string]float64
}

// NewFairShare builds an empty arbiter; tenants register implicitly on
// first use with weight 1, or explicitly through SetWeight.
func NewFairShare() *FairShare {
	return &FairShare{
		weights: make(map[string]float64),
		deficit: make(map[string]float64),
	}
}

// SetWeight sets a tenant's fair-share weight. Non-positive weights
// select the default of 1 (every tenant equal).
func (f *FairShare) SetWeight(tenant string, w float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w <= 0 {
		w = 1
	}
	f.weights[tenant] = w
}

// Weight reports a tenant's effective weight (1 when never set).
func (f *FairShare) Weight(tenant string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.weight(tenant)
}

// weight resolves a tenant's weight. Callers hold f.mu.
func (f *FairShare) weight(tenant string) float64 {
	if w, ok := f.weights[tenant]; ok {
		return w
	}
	return 1
}

// Pick returns the eligible tenant to serve next: the one holding the
// most credit, after refilling every eligible tenant's credit in
// proportion to its weight when none holds a full one. Eligible means
// "has grantable work right now" — the caller filters; an empty
// eligible set returns "". Pick does not spend the credit: the caller
// calls Charge after the grant actually happens (a tenant that turns
// out to have nothing assignable is reported through Idle instead).
func (f *FairShare) Pick(eligible []string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(eligible) == 0 {
		return ""
	}
	// Refill in one step: raise every eligible tenant by the same
	// multiple of its weight, sized so the best-endowed tenant lands
	// exactly on a full credit (the smallest r with d+r·w ≥ 1 for some
	// tenant). Only eligible tenants earn — a tenant with no work
	// accrues nothing, so it cannot bank credit while idle and starve
	// the others later (the classic DRR empty-queue rule).
	best, bestDeficit := f.best(eligible)
	if bestDeficit < 1 {
		rounds := 0.0
		for i, t := range eligible {
			r := (1 - f.deficit[t]) / f.weight(t)
			if i == 0 || r < rounds {
				rounds = r
			}
		}
		for _, t := range eligible {
			f.deficit[t] += rounds * f.weight(t)
		}
		best, _ = f.best(eligible)
	}
	return best
}

// best returns the highest-credit tenant among eligible, smallest name
// winning ties. Callers hold f.mu and pass a non-empty slice.
func (f *FairShare) best(eligible []string) (string, float64) {
	name, deficit := "", 0.0
	for _, t := range eligible {
		if d := f.deficit[t]; name == "" || d > deficit || (d == deficit && t < name) {
			name, deficit = t, d
		}
	}
	return name, deficit
}

// Charge spends one credit of the tenant just granted a task.
func (f *FairShare) Charge(tenant string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deficit[tenant]--
}

// Idle zeroes a tenant's credit when it turns out to have no grantable
// work — deficit round-robin's empty-queue reset, which keeps a tenant
// from hoarding credit across an idle stretch and then monopolizing
// the fleet when it wakes.
func (f *FairShare) Idle(tenant string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.deficit, tenant)
}
