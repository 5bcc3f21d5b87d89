package emu

import (
	"errors"
	"sync"
	"time"

	"github.com/socialtube/socialtube/internal/health"
	"github.com/socialtube/socialtube/internal/obs"
)

// errBreakerOpen is guard.call's answer for a target whose breaker is
// open: nothing was sent.
var errBreakerOpen = errors.New("emu: circuit breaker open")

// guard is the one way a peer makes an RPC it keeps health for: a breaker
// set (per neighbour, or per control-plane endpoint) on the peer's
// monotonic clock, consulted before the call and fed its transport
// outcome after. A well-formed negative answer (MsgMiss) is a healthy
// target without the content, so only transport failures count.
type guard struct {
	mu    sync.Mutex
	set   *health.Set
	epoch time.Time // health.Set wants offsets: every call passes time.Since(epoch)
	cl    *client   // the peer's one client
}

func newGuard(cfg PeerConfig, epoch time.Time, cl *client) *guard {
	return &guard{
		set:   health.NewSet(health.Config{OpenFor: cfg.BreakerOpenFor}, 0),
		epoch: epoch,
		cl:    cl,
	}
}

// allow reports whether id's breaker admits a call right now.
func (g *guard) allow(id int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.set.Ensure(id)
	return g.set.Allow(id, time.Since(g.epoch))
}

// send performs the RPC unconditionally and records its outcome under id.
// Callers that already hold an allow verdict (a chunk stream to one
// provider) or that must probe regardless (the last replica of a dark
// shard) use it directly; everyone else goes through call.
func (g *guard) send(id int, addr string, req *Message) (*Message, error) {
	resp, err := g.cl.rpc(addr, req)
	g.mu.Lock()
	if err != nil {
		g.set.Ensure(id)
		g.set.Failure(id, time.Since(g.epoch))
	} else {
		g.set.Success(id)
	}
	g.mu.Unlock()
	return resp, err
}

// call is allow then send: errBreakerOpen without spending a message when
// id's breaker is open.
func (g *guard) call(id int, addr string, req *Message) (*Message, error) {
	if !g.allow(id) {
		return nil, errBreakerOpen
	}
	return g.send(id, addr, req)
}

// addStats folds the set's breaker statistics into c.
func (g *guard) addStats(c *obs.Counters) {
	g.mu.Lock()
	c.BreakerOpens += g.set.Opens
	c.BreakerSkips += g.set.Skips
	c.BreakerProbes += g.set.Probes
	c.BreakerRecoveries += g.set.Recoveries
	g.mu.Unlock()
}
