package emu

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/socialtube/socialtube/internal/obs"
)

// endpoint is the package's one TCP server, shared by Peer and Tracker:
// it owns the listener, the accept loop and the whole receive path of one
// request — deadline, frame read, strict validation, the owner's admit
// check, injected loss and latency, dispatch, and the chaos-aware response
// write. Together with rpc below it is the package's entire use of the
// network: one net.Listen, one net.DialTimeout.
type endpoint struct {
	// id is the owner's node id in the latency model (-1 for a tracker).
	id   int
	cond *Conditions
	// budget bounds one exchange end to end (read, queueing, write), so a
	// stalled client cannot pin a handler goroutine.
	budget time.Duration
	// ctr is the owner's live counter block (atomic fields).
	ctr *obs.Counters
	// admit reports whether the owner is reachable for req; when false
	// the request vanishes unanswered, so the caller sees a timeout, not
	// a reset — a dark tracker, a crashed or offline peer, a partition.
	admit func(req *Message) bool
	// serve produces the response (nil = no answer).
	serve func(req *Message) *Message

	ln net.Listener
	// wg counts the accept loop, every handler and any goroutine the owner
	// ties to the endpoint's lifetime; done closes on stop.
	wg   sync.WaitGroup
	done chan struct{}
	once sync.Once
}

func newEndpoint(id int, cond *Conditions, budget time.Duration, ctr *obs.Counters,
	admit func(*Message) bool, serve func(*Message) *Message) *endpoint {
	return &endpoint{
		id: id, cond: cond, budget: budget, ctr: ctr,
		admit: admit, serve: serve,
		done: make(chan struct{}),
	}
}

// start binds addr and begins serving.
func (e *endpoint) start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	e.ln = ln
	e.wg.Add(1)
	go e.acceptLoop()
	return nil
}

// addr returns the listen address (empty before start).
func (e *endpoint) addr() string {
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// stop closes the listener and waits for every goroutine counted in wg.
// It is idempotent and safe before start.
func (e *endpoint) stop() {
	e.once.Do(func() {
		close(e.done)
		if e.ln != nil {
			e.ln.Close()
		}
	})
	e.wg.Wait()
}

func (e *endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return
			default:
				continue
			}
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.handle(conn)
		}()
	}
}

func (e *endpoint) handle(conn net.Conn) {
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(e.budget)); err != nil {
		return
	}
	req, err := ReadMessage(conn)
	if err != nil {
		atomic.AddUint64(&e.ctr.FramesMalformed, 1)
		return
	}
	if err := req.Validate(); err != nil {
		atomic.AddUint64(&e.ctr.FramesRejected, 1)
		return
	}
	if !e.admit(req) || e.cond.Drop() {
		return
	}
	time.Sleep(e.cond.Latency(e.id, req.From))
	if resp := e.serve(req); resp != nil {
		act, stall := e.cond.nextChaos()
		writeMessageChaos(conn, resp, act, stall, e.ctr)
	}
}

// rpc dials addr, sends req and waits for a single response, bounded by
// timeout. The connection is closed afterwards (one-shot RPC style).
// Responses are validated with the same strict bounds servers apply to
// requests, so a corrupted or hostile reply surfaces as an error instead
// of propagating garbage ids into the caller.
func rpc(addr string, req *Message, timeout time.Duration) (*Message, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("set deadline: %w", err)
	}
	if err := WriteMessage(conn, req); err != nil {
		return nil, err
	}
	resp, err := ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("rpc %s to %s: %w", req.Type, addr, err)
	}
	if err := resp.Validate(); err != nil {
		return nil, fmt.Errorf("rpc %s to %s: %w", req.Type, addr, err)
	}
	return resp, nil
}
