package netmr

import "time"

// TenantClient is a Client bound to one tenant: Submit stamps the
// tenant into every spec, Kill and ListJobs scope to the tenant's
// jobs — the per-tenant handle on the multi-tenant job service a
// long-running JobTracker is.
type TenantClient struct {
	*Client
	tenant string
}

// NewTenantClient builds a tenant-bound client against a running
// service's NameNode and JobTracker addresses. Options (e.g.
// WithClientWireCodec) pass through to the underlying Client.
func NewTenantClient(nameNodeAddr, jobTrackerAddr string, blockSize int64, tenant string, opts ...ClientOption) (*TenantClient, error) {
	c, err := NewClient(nameNodeAddr, jobTrackerAddr, blockSize, opts...)
	if err != nil {
		return nil, err
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	return &TenantClient{Client: c, tenant: tenant}, nil
}

// Submit sends a job under this client's tenant and returns its ID.
func (tc *TenantClient) Submit(spec JobSpec) (int64, error) {
	spec.Tenant = tc.tenant
	return tc.Client.Submit(spec)
}

// SubmitAndWait is Submit followed by Wait, under this client's
// tenant.
func (tc *TenantClient) SubmitAndWait(spec JobSpec, timeout time.Duration) ([]byte, error) {
	id, err := tc.Submit(spec)
	if err != nil {
		return nil, err
	}
	return tc.Wait(id, timeout)
}

// Kill terminates one of this tenant's jobs; killing another tenant's
// job is refused by the JobTracker.
func (tc *TenantClient) Kill(jobID int64) error {
	return tc.Client.Kill(jobID, tc.tenant)
}

// ListJobs lists this tenant's jobs in submission order.
func (tc *TenantClient) ListJobs() ([]JobInfo, error) {
	return tc.Client.ListJobs(tc.tenant)
}
