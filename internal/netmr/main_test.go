package netmr

import (
	"testing"
	"time"

	"hetmr/internal/testutil"
)

// TestMain fails the package if any test leaks a goroutine — tracker
// heartbeat loops, shuffle fetchers and cached connections must all
// stop with their cluster.
func TestMain(m *testing.M) {
	testutil.VerifyTestMain(m)
}

// waitResult waits for the job (WaitStatus) and narrows the terminal
// status to a structured kernel's reduced result bytes; a byte-stream
// job has none.
func waitResult(c *Client, id int64, timeout time.Duration) ([]byte, error) {
	st, err := c.WaitStatus(id, timeout)
	return st.Result, err
}

// submitAndWait is Submit followed by waitResult.
func submitAndWait(c *Client, spec JobSpec, timeout time.Duration) ([]byte, error) {
	id, err := c.Submit(spec)
	if err != nil {
		return nil, err
	}
	return waitResult(c, id, timeout)
}
