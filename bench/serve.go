package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bddmin/internal/problem"
	"bddmin/internal/route"
	"bddmin/internal/serve"
)

// The serving workloads run bddmind (and, for serve-hot, bddrouter) in this
// process behind real HTTP listeners on 127.0.0.1, configured as the
// cmd/bddmind and cmd/bddrouter flag defaults configure them. The load
// comes from the same process over at most loadConns connections: first an
// open loop with Poisson arrivals, each request timed from when it was due,
// then a closed loop of loadConns callers that measures capacity.

const (
	loadConns      = 2
	coldRate       = 200 // requests per second, open loop
	hotRate        = 200
	coldLimit      = 25 * time.Millisecond
	hotLimit       = 10 * time.Millisecond
	hotPoolSize    = 64
	hotPoolSeed    = 0
	hotZipfS       = 1.1
	warmSeconds    = 1.0
	probeInterval  = 50 * time.Millisecond
	maxOutstanding = 256 // open-loop requests in flight before the generator itself falls behind
	spanHeader     = "X-Bench-Span"
)

type spanKey struct{}

// spanTransport tells the server-side span wrappers which client span a
// request belongs to.
type spanTransport struct{ base http.RoundTripper }

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(id))
	}
	return s.base.RoundTrip(r)
}

// listener is one in-process HTTP server.
type listener struct {
	srv *http.Server
	url string
}

// listen serves h on a free port of 127.0.0.1.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go func() {
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("bench: serving %s: %v\n", l.url, err)
		}
	}()
	return l, nil
}

// stream is the request sequence of one serving run.
type stream struct {
	// Warm-up requests run before timing, so that the servers' managers and
	// the process heap have grown to their working size: warmSeconds of
	// traffic at the open-loop rate.
	warm []serve.MinimizeRequest
	// Open-loop requests and their due offsets, in seconds.
	reqs []serve.MinimizeRequest
	due  []float64
	// digest identifies the open-loop requests.
	digest string
	// The closed loop draws from next.
	mu   sync.Mutex
	next func() (serve.MinimizeRequest, error)
}

// newStream draws a run's requests from the seed. On the cold workload
// every request is a fresh instance; on the hot one requests pick from a
// fixed pool, every pool instance being sent once during warm-up.
func newStream(o *options, hot bool, rate float64) (*stream, error) {
	suite, err := suiteNetlists()
	if err != nil {
		return nil, err
	}
	s := &stream{due: arrivals(o.seed+1, rate, o.open.Seconds())}
	if hot {
		// The pool is the same for every seed, which draws only arrivals and
		// picks: a quarter of the requests go to the top instance, and which
		// instance that is would otherwise move p50 from seed to seed.
		gen := newGenerator(hotPoolSeed, suite)
		pool := make([]serve.MinimizeRequest, hotPoolSize)
		for i := range pool {
			if pool[i], err = gen.next(); err != nil {
				return nil, err
			}
		}
		zipf := rand.NewZipf(rand.New(rand.NewSource(o.seed+2)), hotZipfS, 1, hotPoolSize-1)
		s.next = func() (serve.MinimizeRequest, error) { return pool[zipf.Uint64()], nil }
		s.warm = pool
	} else {
		s.next = newGenerator(o.seed, suite).next
	}
	for len(s.warm) < int(warmSeconds*rate) {
		req, err := s.next()
		if err != nil {
			return nil, err
		}
		s.warm = append(s.warm, req)
	}
	sum := sha256.New()
	for range s.due {
		req, err := s.next()
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, req)
		fmt.Fprintf(sum, "%s\x00%s\x00%d\x00%s\x00%s\x00", req.Format, req.Input, req.Output, req.Node, req.Heuristic)
	}
	s.digest = hex.EncodeToString(sum.Sum(nil))
	return s, nil
}

type serveRunner struct {
	*stream
	hot   bool
	limit time.Duration

	minds     []*serve.Server
	backends  []*listener
	router    *route.Router
	front     *listener
	transport *http.Transport
	client    *serve.Client
	tracer    atomic.Pointer[tracer]
}

func setupServeCold(o *options) (runner, error) { return setupServe(o, false) }
func setupServeHot(o *options) (runner, error)  { return setupServe(o, true) }

func setupServe(o *options, hot bool) (runner, error) {
	rate, limit := float64(coldRate), coldLimit
	if hot {
		rate, limit = hotRate, hotLimit
	}
	if o.rate > 0 {
		rate = o.rate
	}
	s, err := newStream(o, hot, rate)
	if err != nil {
		return nil, err
	}
	r := &serveRunner{stream: s, hot: hot, limit: limit}
	if err := r.start(); err != nil {
		r.close()
		return nil, err
	}
	for _, req := range r.warm {
		if _, status, _, err := r.client.Minimize(context.Background(), req); err != nil || status != http.StatusOK {
			r.close()
			return nil, fmt.Errorf("warm-up: status %d, %v", status, err)
		}
	}
	return r, nil
}

// start boots the servers and the load client.
func (r *serveRunner) start() error {
	// cmd/bddmind defaults: 2 shards, queue 64, 64 variables, a 4096-entry /
	// 64 MiB result cache; the hot fleet runs 1 shard per backend.
	shards, nMinds := 2, 1
	if r.hot {
		shards, nMinds = 1, 2
	}
	for i := 0; i < nMinds; i++ {
		s := serve.New(serve.Config{
			Shards: shards, QueueDepth: 64, MaxVars: 64, RetryAfter: 500 * time.Millisecond,
			CacheEntries: 4096, CacheBytes: 64 << 20,
		})
		s.Start()
		r.minds = append(r.minds, s)
		l, err := listen(r.spanned("serve.handler", s.Handler()))
		if err != nil {
			return err
		}
		r.backends = append(r.backends, l)
	}
	r.front = r.backends[0]
	if r.hot {
		// The router places instances by hashing backend URLs, so the
		// backends get fixed names that the router's transport dials at
		// their listeners: with the listeners' random ports as URLs, the
		// split of the pool between backends, and with it capacity, would
		// change from run to run.
		var urls []string
		addrs := map[string]string{}
		for i, b := range r.backends {
			host := fmt.Sprintf("backend-%d", i)
			urls = append(urls, "http://"+host)
			addrs[host+":80"] = strings.TrimPrefix(b.url, "http://")
		}
		var dialer net.Dialer
		// route.Config defaults plus the pooled client cmd/bddrouter builds.
		r.router = route.New(route.Config{
			Backends: urls,
			HTTP: &http.Client{Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					return dialer.DialContext(ctx, network, addrs[addr])
				},
			}},
		})
		r.router.Start()
		l, err := listen(r.spanned("route.handler", r.router.Handler()))
		if err != nil {
			return err
		}
		r.front = l
	}
	r.transport = &http.Transport{MaxConnsPerHost: loadConns, MaxIdleConnsPerHost: loadConns}
	r.client = &serve.Client{Base: r.front.url, HTTP: &http.Client{Transport: spanTransport{r.transport}, Timeout: 30 * time.Second}}
	return r.client.WaitHealthy(5 * time.Second)
}

// spanned records a span around each /minimize of a traced request, under
// the client span spanHeader names. Backends behind the router never see
// that header; they record every request that arrives while a tracer is
// installed, as unlinked roots.
func (r *serveRunner) spanned(name string, h http.Handler) http.Handler {
	behindRouter := r.hot && name == "serve.handler"
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := r.tracer.Load()
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
		if tr == nil || req.URL.Path != "/minimize" || (parent == 0 && !behindRouter) {
			h.ServeHTTP(w, req)
			return
		}
		id := tr.begin(name, parent, tr.reqOf(parent))
		h.ServeHTTP(w, req)
		tr.end(id)
	})
}

func (r *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if r.transport != nil {
		r.transport.CloseIdleConnections()
	}
	if r.router != nil {
		if r.front != nil && r.front != r.backends[0] {
			_ = r.front.srv.Shutdown(ctx) // best effort: the process is done with it
		}
		r.router.Close()
	}
	for i, s := range r.minds {
		_ = s.Drain(ctx) // in-flight work is abandoned with the run
		if i < len(r.backends) {
			_ = r.backends[i].srv.Shutdown(ctx)
		}
	}
}

// outcome is one request's fate.
type outcome struct {
	req     serve.MinimizeRequest
	resp    *serve.MinimizeResponse
	status  int
	err     error
	late    time.Duration // open loop: send time minus due time
	lat     time.Duration // open loop: from due time to answer
	span    int           // client span (traced open loop)
	wrong   bool          // the cover failed verification
	parseNs int64         // problem.Parse on the request, timed client-side
}

func (r *serveRunner) measure(o *options, pr *prober, tr *tracer) (*measurement, error) {
	before, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	// Only the open loop is traced, and only in alternate seconds: the
	// per-layer shares are of the traced requests' latency, and the
	// untraced ones in between give the tracing overhead.
	m := &measurement{info: map[string]any{}, digest: r.digest}
	stop := m.gc.track()
	stopProbe := pr.every(probeInterval)
	open := r.openLoop(tr)
	stopProbe()
	stop()
	openScale := pr.take()
	m.done = len(open)
	after, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	stopProbe = pr.every(probeInterval)
	closed, capacity := r.closedLoop(o.closed)
	stopProbe()
	closedScale := pr.take()
	m.info["capacity_rps"] = capacity / closedScale
	m.info["raw_capacity_rps"] = capacity
	m.info["speed_scale"] = openScale
	m.failed = r.verify(append(append([]*outcome(nil), open...), closed...), m)
	m.attempted = len(open) + len(closed)
	var lateMs, plainMs []float64
	slo, hits := 0, 0
	for _, oc := range open {
		if oc.status != http.StatusOK {
			continue
		}
		l := float64(oc.lat) / 1e6
		m.latMs = append(m.latMs, l)
		lateMs = append(lateMs, float64(oc.late)/1e6)
		if oc.span == 0 {
			plainMs = append(plainMs, l)
		}
		m.resultSize += float64(oc.resp.CoverSize)
		m.inputSize += float64(oc.resp.InputSize)
		if oc.lat <= r.limit && !oc.wrong {
			slo++
		}
		if oc.resp.Cached || oc.resp.Coalesced {
			hits++
		}
	}
	m.sloOK = ratio(float64(slo), float64(len(open)))
	m.throughput = float64(slo) / o.open.Seconds()
	m.info["requests_open"] = len(open)
	m.info["requests_closed"] = len(closed)
	m.info["samples"] = len(m.latMs)
	m.info["raw_p50_ms"] = quantile(m.latMs, 0.5)
	for i := range m.latMs {
		m.latMs[i] *= openScale
	}
	m.info["p99_ms"] = quantile(m.latMs, 0.99)
	m.info["late_p99_ms"] = quantile(lateMs, 0.99) * openScale
	m.info["cover_nodes"] = m.resultSize

	var busy, made float64
	shards := 0
	for i := range after.minds {
		for j, sh := range after.minds[i].Shards {
			busy += float64(sh.BusyNs - before.minds[i].Shards[j].BusyNs)
			made += float64(sh.NodesMade - before.minds[i].Shards[j].NodesMade)
			shards++
		}
	}
	m.layers = map[string]float64{
		"bdd.nodes_made":        made,
		"serve.shard_util":      busy / (o.open.Seconds() * 1e9 * float64(shards)),
		"serve.cache_hit_ratio": ratio(float64(hits), float64(len(m.latMs))),
	}
	if r.router != nil {
		var attempts, oks, maxOK float64
		for i, b := range after.router.Backends {
			attempts += float64(b.Requests - before.router.Backends[i].Requests)
			ok := float64(b.OK - before.router.Backends[i].OK)
			oks += ok
			if ok > maxOK {
				maxOK = ok
			}
		}
		m.layers["route.attempts_per_req"] = ratio(attempts, float64(after.router.Counters.Forwarded-before.router.Counters.Forwarded))
		m.layers["route.backend_share_max"] = ratio(maxOK, oks)
	}
	if tr != nil {
		m.spans = r.reportShardTime(tr, open)
		r.layerShares(m, open)
		m.overhead = ratio(mean(tracedLatencies(open)), mean(plainMs)) - 1
	}
	return m, nil
}

// tracedLatencies lists the open-loop latencies, in ms, of the traced
// requests that succeeded.
func tracedLatencies(open []*outcome) []float64 {
	var out []float64
	for _, oc := range open {
		if oc.span != 0 && oc.status == http.StatusOK {
			out = append(out, float64(oc.lat)/1e6)
		}
	}
	return out
}

// layerShares splits the traced requests' latency, summed from their due
// times, into the generator's lateness, the client and network residual,
// the router's own time (serve-hot), the bddmind handler's own time, and
// the shard queue and run intervals the responses report; the parts add
// up to 1. Behind the router the backend spans are matched to requests only
// in aggregate.
func (r *serveRunner) layerShares(m *measurement, open []*outcome) {
	var latMs, lateMs, queueMs, runMs []float64
	var sumLat, sumLate, sumQueue, sumRun float64
	runByHeur := map[string]float64{}
	parseByKind := map[string]float64{}
	for _, oc := range open {
		if oc.span == 0 || oc.status != http.StatusOK {
			continue
		}
		l, late := float64(oc.lat)/1e6, float64(oc.late)/1e6
		q, run := float64(oc.resp.QueueNs)/1e6, float64(oc.resp.RunNs)/1e6
		latMs, lateMs, queueMs, runMs = append(latMs, l), append(lateMs, late), append(queueMs, q), append(runMs, run)
		sumLat, sumLate, sumQueue, sumRun = sumLat+l, sumLate+late, sumQueue+q, sumRun+run
		runByHeur[oc.resp.Heuristic] += run
		parseByKind[oc.req.Format] += float64(oc.parseNs) / 1e6
	}
	tot := totals(m.spans)
	handler := float64(tot["serve.handler"]) / 1e6
	outer := handler
	if r.hot {
		outer = float64(tot["route.handler"]) / 1e6
		m.layers["route.self_share"] = (outer - handler) / sumLat
	}
	m.layers["client.late_share"] = sumLate / sumLat
	m.layers["http.residual_share"] = (float64(tot["client.request"])/1e6 - outer) / sumLat
	m.layers["serve.handler_self_share"] = (handler - sumQueue - sumRun) / sumLat
	m.layers["serve.queue_share"] = sumQueue / sumLat
	m.layers["serve.run_share"] = sumRun / sumLat
	for h, t := range runByHeur {
		m.layers["core."+h+"_share"] = t / sumLat
	}
	for kind, t := range parseByKind {
		m.layers["problem.parse_share."+kind] = t / sumLat
	}
	p50, p99 := quantile(latMs, 0.5), quantile(latMs, 0.99)
	m.layers["serve.queue_p99_share"] = quantile(queueMs, 0.99) / p99
	m.layers["serve.run_p50_share"] = quantile(runMs, 0.5) / p50
	m.layers["serve.run_p99_share"] = quantile(runMs, 0.99) / p99
	m.layers["client.late_p99_share"] = quantile(lateMs, 0.99) / p99
}

// openLoop sends r.reqs at their due times and waits for every answer.
// With a tracer, requests due in even seconds are traced.
func (r *serveRunner) openLoop(tr *tracer) []*outcome {
	out := make([]*outcome, len(r.reqs))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range r.reqs {
		due := start.Add(time.Duration(r.due[i] * float64(time.Second)))
		time.Sleep(time.Until(due))
		var rtr *tracer
		if int(r.due[i])%2 == 0 {
			rtr = tr
		}
		r.tracer.Store(rtr)
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			oc := &outcome{req: r.reqs[i]}
			ctx := context.Background()
			sent := time.Now()
			if rtr != nil {
				oc.span = rtr.begin("client.request", 0, i+1)
				ctx = context.WithValue(ctx, spanKey{}, oc.span)
			}
			oc.resp, oc.status, _, oc.err = r.client.Minimize(ctx, oc.req)
			if rtr != nil {
				rtr.end(oc.span)
			}
			done := time.Now()
			oc.late, oc.lat = sent.Sub(due), done.Sub(due)
			out[i] = oc
		}(i, due)
	}
	wg.Wait()
	r.tracer.Store(nil)
	return out
}

// closedLoop runs loadConns callers back to back for d and returns their
// outcomes and the rate at which they completed requests successfully.
func (r *serveRunner) closedLoop(d time.Duration) ([]*outcome, float64) {
	var (
		mu  sync.Mutex
		out []*outcome
		ok  int
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				r.mu.Lock()
				req, err := r.next()
				r.mu.Unlock()
				oc := &outcome{req: req, err: err}
				if err == nil {
					oc.resp, oc.status, _, oc.err = r.client.Minimize(context.Background(), req)
				}
				mu.Lock()
				out = append(out, oc)
				if oc.status == http.StatusOK {
					ok++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, float64(ok) / time.Since(start).Seconds()
}

// verify re-checks every cover against its instance, parsed here on the
// client with the parse timed into the outcome, sharing the outcomes out
// among loadConns goroutines. It returns the number of failed requests.
func (r *serveRunner) verify(all []*outcome, m *measurement) int {
	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		failed int
	)
	fail := func(msg string) {
		mu.Lock()
		defer mu.Unlock()
		failed++
		m.errs = append(m.errs, msg)
	}
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A repeated request with the same cover (serve-hot) reuses its
			// verdict and parse time.
			type verdict struct {
				cover string
				ns    int64
				err   error
			}
			seen := map[serve.MinimizeRequest]verdict{}
			for i := w; i < len(all); i += loadConns {
				oc := all[i]
				if oc.err != nil || oc.status != http.StatusOK {
					fail(fmt.Sprintf("%s request: status %d, %v", oc.req.Format, oc.status, oc.err))
					continue
				}
				v, ok := seen[oc.req]
				if !ok || v.cover != oc.resp.Cover {
					t0 := time.Now()
					p, err := problem.Parse(problem.Kind(oc.req.Format), oc.req.Input, oc.req.Output, oc.req.Node)
					v = verdict{cover: oc.resp.Cover, ns: int64(time.Since(t0)), err: err}
					if err == nil {
						v.err = serve.VerifyResponse(p, oc.resp)
					}
					seen[oc.req] = v
				}
				oc.parseNs = v.ns
				if v.err != nil {
					oc.wrong = true
					fail(fmt.Sprintf("%s request: %v", oc.req.Format, v.err))
				}
			}
		}(w)
	}
	wg.Wait()
	return failed
}

// reportShardTime adds each cold request's shard queue and run intervals,
// as the response reported them, under its serve.handler span. Behind the
// router the backend spans cannot be matched to requests (the router does
// not forward request headers), so serve-hot accounts for them in
// aggregate only.
func (r *serveRunner) reportShardTime(tr *tracer, open []*outcome) []span {
	if !r.hot {
		handler := map[int]int{}
		for _, s := range tr.snapshot() {
			if s.Name == "serve.handler" && s.Parent != 0 {
				handler[s.Parent] = s.ID
			}
		}
		for _, oc := range open {
			if h := handler[oc.span]; h != 0 && oc.resp != nil {
				run := time.Duration(oc.resp.RunNs)
				tr.report("serve.run", h, run, 0)
				tr.report("serve.queue", h, time.Duration(oc.resp.QueueNs), run)
			}
		}
	}
	return tr.snapshot()
}

// fleetSnapshot is the servers' /metrics at one instant.
type fleetSnapshot struct {
	minds  []*serve.MetricsSnapshot
	router route.MetricsSnapshot
}

func (r *serveRunner) snapshot() (*fleetSnapshot, error) {
	fs := &fleetSnapshot{}
	for _, b := range r.backends {
		c := &serve.Client{Base: b.url, HTTP: r.client.HTTP}
		ms, err := c.Metrics(context.Background())
		if err != nil {
			return nil, err
		}
		sort.Slice(ms.Shards, func(i, j int) bool { return ms.Shards[i].Shard < ms.Shards[j].Shard })
		fs.minds = append(fs.minds, ms)
	}
	if r.router != nil {
		fs.router = r.router.Metrics()
	}
	return fs, nil
}
