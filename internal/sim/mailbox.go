package sim

// Mailbox is an unbounded FIFO message queue between processes.
// Send never blocks; Recv blocks the receiver until a message is
// available. Used for RPC-style request/response between simulated
// daemons (JobTracker, TaskTrackers, NameNode, DataNodes).
type Mailbox[T any] struct {
	queue   []T
	waiters WaitQueue
}

// Len returns the number of queued messages.
func (m *Mailbox[T]) Len() int { return len(m.queue) }

// Send enqueues v and wakes one receiver if any is waiting.
func (m *Mailbox[T]) Send(v T) {
	m.queue = append(m.queue, v)
	m.waiters.WakeOne()
}

// Recv dequeues the oldest message, blocking p until one arrives.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for len(m.queue) == 0 {
		m.waiters.Wait(p)
	}
	v := m.queue[0]
	var zero T
	m.queue[0] = zero
	m.queue = m.queue[1:]
	return v
}

// TryRecv dequeues a message if one is available, without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	if len(m.queue) == 0 {
		var zero T
		return zero, false
	}
	v := m.queue[0]
	var zero T
	m.queue[0] = zero
	m.queue = m.queue[1:]
	return v, true
}

// Gate is a broadcast latch: processes wait on it until it is opened,
// after which all current and future waits return immediately.
type Gate struct {
	open    bool
	waiters WaitQueue
}

// Open releases all waiting processes and makes future Wait calls
// return immediately.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	g.waiters.WakeAll()
}

// IsOpen reports whether the gate has been opened.
func (g *Gate) IsOpen() bool { return g.open }

// Wait blocks p until the gate opens.
func (g *Gate) Wait(p *Proc) {
	if g.open {
		return
	}
	g.waiters.Wait(p)
}
