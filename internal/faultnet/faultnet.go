// Package faultnet is a deterministic fault-injecting reverse proxy for
// testing grey-failure tolerance. A Proxy sits on a real TCP listener in
// front of one backend and misbehaves on schedule: refuse, stall,
// delay, truncate, corrupt or 500 individual requests, exactly as a
// sick-but-not-dead backend would.
//
// Determinism is the point. Faults are a pure function of the request
// sequence number — the Nth /minimize request through a proxy always
// receives the same fault, at any concurrency, on any run — so a chaos
// scenario is a reproducible test case rather than a lucky observation.
// There is no RNG anywhere in this package; "seeded" schedules are
// arithmetic on the sequence number (EveryNth) or explicit windows
// (Script).
//
// Health probes are always forwarded clean: a faulted backend still
// answers /healthz promptly, which is precisely what makes a failure
// *grey* — probe-based ejection never fires and only in-band evidence
// (attempt timeouts, circuit breakers) can catch it.
package faultnet

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Pass forwards the request untouched.
	Pass Kind = iota
	// Reset accepts the TCP connection and closes it without answering —
	// the client sees a connection reset mid-request.
	Reset
	// Stall accepts the request and never answers: the classic grey
	// failure. The handler blocks until the client abandons the attempt
	// (context canceled) or the proxy closes, then kills the connection.
	Stall
	// Latency delays the forward by Fault.Delay, then proxies normally —
	// slow, not dead: the attempt answers unless the timeout fires first.
	Latency
	// Truncate forwards the request, advertises the backend's full
	// Content-Length, writes only half the body and kills the connection —
	// the client's body read fails with an unexpected EOF.
	Truncate
	// Corrupt answers 200 with a mangled non-JSON body in place of the
	// backend's response.
	Corrupt
	// Inject500 answers HTTP 500 without consulting the backend.
	Inject500
	numKinds int = iota
)

// String names a Kind for counters and logs.
func (k Kind) String() string {
	switch k {
	case Pass:
		return "pass"
	case Reset:
		return "reset"
	case Stall:
		return "stall"
	case Latency:
		return "latency"
	case Truncate:
		return "truncate"
	case Corrupt:
		return "corrupt"
	case Inject500:
		return "inject500"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one scheduled misbehavior. Delay applies to Latency (the
// added delay) and is ignored elsewhere.
type Fault struct {
	Kind  Kind
	Delay time.Duration
}

// Schedule decides the fault for the seq-th work request (0-based,
// /minimize only — health probes have their own schedule). FaultFor must
// be pure: same seq, same Fault.
type Schedule interface {
	FaultFor(seq uint64) Fault
}

// Clean is the all-Pass schedule.
type Clean struct{}

// FaultFor always passes.
func (Clean) FaultFor(uint64) Fault { return Fault{Kind: Pass} }

// Window is one contiguous fault interval of a Script: requests with
// From ≤ seq < To receive Fault.
type Window struct {
	From, To uint64
	Fault    Fault
}

// Script is a deterministic fault schedule made of explicit windows; the
// first matching window wins and everything unmatched passes. A script
// like {5,10,Stall},{10,15,Inject500} reads as a timeline over the
// request sequence.
type Script []Window

// FaultFor returns the first window covering seq, or Pass.
func (s Script) FaultFor(seq uint64) Fault {
	for _, w := range s {
		if seq >= w.From && seq < w.To {
			return w.Fault
		}
	}
	return Fault{Kind: Pass}
}

// EveryNth faults every Nth request: seq ≡ Offset (mod N). N ≤ 1 faults
// every request.
type EveryNth struct {
	N      uint64
	Offset uint64
	Fault  Fault
}

// FaultFor applies the congruence.
func (e EveryNth) FaultFor(seq uint64) Fault {
	if e.N <= 1 || seq%e.N == e.Offset%e.N {
		return e.Fault
	}
	return Fault{Kind: Pass}
}

// Proxy is one fault-injecting reverse proxy instance. Create with New,
// stop with Close (which also unblocks any in-flight stalls).
type Proxy struct {
	backend string
	sched   Schedule

	ln     net.Listener
	srv    *http.Server
	client *http.Client

	seq    atomic.Uint64
	counts [numKinds]atomic.Uint64
	closed chan struct{}
}

// New starts a proxy for backend (a base URL like "http://127.0.0.1:123")
// on an ephemeral localhost port. The returned proxy is serving when New
// returns; URL() is its base address.
func New(backend string, sched Schedule) (*Proxy, error) {
	if sched == nil {
		sched = Clean{}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	p := &Proxy{
		backend: backend,
		sched:   sched,
		ln:      ln,
		closed:  make(chan struct{}),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	p.srv = &http.Server{Handler: p}
	go func() { _ = p.srv.Serve(ln) }()
	return p, nil
}

// URL is the proxy's base address — what the router or client targets in
// place of the backend.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// Counts snapshots how many requests received each fault kind.
func (p *Proxy) Counts() map[string]uint64 {
	out := make(map[string]uint64, numKinds)
	for k := 0; k < numKinds; k++ {
		if c := p.counts[k].Load(); c > 0 {
			out[Kind(k).String()] = c
		}
	}
	return out
}

// Close stops the listener and unblocks every in-flight stall.
func (p *Proxy) Close() error {
	select {
	case <-p.closed:
		return nil
	default:
	}
	close(p.closed)
	err := p.srv.Close()
	p.client.CloseIdleConnections()
	return err
}

// ServeHTTP applies the scheduled fault and (usually) proxies.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		p.proxy(w, r) // clean probes: the grey failure
		return
	}
	fault := p.sched.FaultFor(p.seq.Add(1) - 1)
	p.counts[fault.Kind].Add(1)
	switch fault.Kind {
	case Reset:
		p.abort(w)
	case Stall:
		select {
		case <-r.Context().Done():
		case <-p.closed:
		}
		p.abort(w)
	case Latency:
		select {
		case <-time.After(fault.Delay):
		case <-r.Context().Done():
			p.abort(w)
			return
		case <-p.closed:
			p.abort(w)
			return
		}
		p.proxy(w, r)
	case Truncate:
		p.truncate(w, r)
	case Corrupt:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, `{"id":42,"cover":"{{{{ not json`)
	case Inject500:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, `{"error":"faultnet: injected internal error"}`)
	default:
		p.proxy(w, r)
	}
}

// abort kills the client connection without a response; the standard
// library turns http.ErrAbortHandler panics into exactly that.
func (p *Proxy) abort(http.ResponseWriter) {
	panic(http.ErrAbortHandler)
}

// proxy forwards the request verbatim and streams the response back.
func (p *Proxy) proxy(w http.ResponseWriter, r *http.Request) {
	res, err := p.roundTrip(r)
	if err != nil {
		p.badGateway(w, err)
		return
	}
	defer res.Body.Close()
	copyHeader(w.Header(), res.Header)
	w.WriteHeader(res.StatusCode)
	_, _ = io.Copy(w, res.Body)
}

// truncate forwards the request but delivers only half the advertised
// body, then kills the connection.
func (p *Proxy) truncate(w http.ResponseWriter, r *http.Request) {
	res, err := p.roundTrip(r)
	if err != nil {
		p.badGateway(w, err)
		return
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		p.badGateway(w, err)
		return
	}
	copyHeader(w.Header(), res.Header)
	// Promise the whole body, deliver half, cut the line: the client's
	// read fails with an unexpected EOF instead of quietly shortening.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(res.StatusCode)
	_, _ = w.Write(body[:len(body)/2])
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	p.abort(w)
}

// roundTrip reissues r against the backend under the inbound context.
func (p *Proxy) roundTrip(r *http.Request) (*http.Response, error) {
	ctx, cancel := context.WithCancel(r.Context())
	go func() {
		select {
		case <-p.closed:
			cancel()
		case <-ctx.Done():
		}
	}()
	req, err := http.NewRequestWithContext(ctx, r.Method, p.backend+r.URL.RequestURI(), r.Body)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header = r.Header.Clone()
	res, err := p.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// cancel when the response body is exhausted/closed.
	res.Body = &cancelOnClose{ReadCloser: res.Body, cancel: cancel}
	return res, nil
}

// cancelOnClose ties a request's context cancel to its body lifetime.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// badGateway reports a forwarding failure (backend unreachable through
// the proxy) as 502 — distinguishable from injected faults.
func (p *Proxy) badGateway(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadGateway)
	fmt.Fprintf(w, `{"error":"faultnet: backend unreachable: %s"}`, err)
}

// copyHeader mirrors the backend's response headers.
func copyHeader(dst, src http.Header) {
	for k, vv := range src {
		dst[k] = append([]string(nil), vv...)
	}
}
