package route

import (
	"context"
	"io"
	"net/http"
	"time"

	"bddmin/internal/obs"
)

// Active health checking. One goroutine per backend polls GET /healthz on
// ProbeInterval; the backend answers 200 while serving and 503 (body
// {"state":"draining"}) once a drain starts, so a draining backend fails
// its probes and is ejected *before* its queue runs dry and it starts
// refusing forwarded work — the router's half of the graceful-drain
// handshake. Ejection and re-admission are hysteretic (failAfter /
// reviveAfter consecutive outcomes) so one dropped probe doesn't flap
// the ring.

const (
	probeTimeout = 500 * time.Millisecond // bound on one /healthz probe
	failAfter    = 2                      // consecutive failed probes that eject a backend
	reviveAfter  = 2                      // consecutive clean probes that re-admit it
)

// probeLoop is the per-backend health loop.
func (rt *Router) probeLoop(b *backend) {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	consecFail, consecOK := 0, 0
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		if rt.probe(b) {
			consecOK++
			consecFail = 0
			if b.ejected.Load() && consecOK >= reviveAfter {
				b.ejected.Store(false)
				b.readmissions.Add(1)
				// A probe-based re-admission means a fresh (probably
				// restarted) process: clear any in-band circuit evidence so
				// the backend re-enters first-choice placement clean.
				b.br.reset()
				rt.emit(obs.RouteEvent{Phase: "readmitted", Backend: b.addr, Reason: "probe"})
			}
		} else {
			consecFail++
			consecOK = 0
			b.probeFails.Add(1)
			if !b.ejected.Load() && consecFail >= failAfter {
				b.ejected.Store(true)
				b.ejections.Add(1)
				rt.emit(obs.RouteEvent{Phase: "ejected", Backend: b.addr, Reason: "probe"})
			}
		}
	}
}

// probe performs one health check: healthy means the backend answered
// 200 within probeTimeout. A 503 — draining or overloaded — is
// unhealthy on purpose; see the package comment.
func (rt *Router) probe(b *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+"/healthz", nil)
	if err != nil {
		return false
	}
	res, err := rt.httpClient().Do(req)
	if err != nil {
		return false
	}
	// Drain the small body so the connection is reusable.
	_, _ = io.Copy(io.Discard, io.LimitReader(res.Body, 4096))
	res.Body.Close()
	return res.StatusCode == http.StatusOK
}

// Healthy reports how many backends are currently admitted.
func (rt *Router) Healthy() int {
	n := 0
	for _, b := range rt.backends {
		if !b.ejected.Load() {
			n++
		}
	}
	return n
}
