package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bddmin/internal/core"
	"bddmin/internal/logic"
	"bddmin/internal/network"
	"bddmin/internal/obs"
)

// POST /optimize-network: whole-network don't-care optimization (package
// network) behind the same admission control, budgets and observability as
// /minimize. A network job flows through the same bounded queue and runs on
// a shard worker, but on private throwaway window managers rather than the
// shard's own — the shard manager's monotone growth is driven by single
// instances, not whole netlists. Network results are never cached: the
// response embeds a full rewritten netlist, whose size makes the result
// cache's byte accounting pointless for the hit rates networks see.

// NetworkRequest is the body of POST /optimize-network.
type NetworkRequest struct {
	// Input is the full BLIF source of the network to optimize.
	Input string `json:"input"`
	// Heuristic names the per-node minimizer (default "osm_bt").
	Heuristic string `json:"heuristic,omitempty"`
	// FaninLevels/FanoutLevels/MaxWindowInputs/MaxSweeps map onto
	// network.Options; zero takes that package's defaults.
	FaninLevels     int `json:"fanin_levels,omitempty"`
	FanoutLevels    int `json:"fanout_levels,omitempty"`
	MaxWindowInputs int `json:"max_window_inputs,omitempty"`
	MaxSweeps       int `json:"max_sweeps,omitempty"`
	// BudgetNodes caps each node's window work (network.Options.NodeBudget),
	// clamped by the server's MaxNodesPerRequest exactly like /minimize.
	BudgetNodes uint64 `json:"budget_nodes,omitempty"`
	// TimeoutMs bounds the whole run; it is also attached to every per-node
	// budget, so a lapsed deadline cuts the current window, not just the
	// next one. Aborted windows are skipped, never an error.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Trace returns the run's network/heuristic event trace in the response.
	Trace bool `json:"trace,omitempty"`
}

// SweepSnapshot is one convergence-loop iteration in a NetworkResponse.
type SweepSnapshot struct {
	Cost     int `json:"cost"`
	Nodes    int `json:"nodes"`
	Rewrites int `json:"rewrites"`
	Aborts   int `json:"aborts"`
	Skipped  int `json:"skipped"`
}

// NetworkResponse is the body of a successful (HTTP 200) network run.
type NetworkResponse struct {
	ID        uint64 `json:"id"`
	Heuristic string `json:"heuristic"`
	// Inputs counts primary inputs plus latches (the admission width).
	Inputs       int             `json:"inputs"`
	InitialNodes int             `json:"initial_nodes"`
	FinalNodes   int             `json:"final_nodes"`
	InitialCost  int             `json:"initial_cost"`
	FinalCost    int             `json:"final_cost"`
	Sweeps       []SweepSnapshot `json:"sweeps"`
	Rewrites     int             `json:"rewrites"`
	Aborts       int             `json:"aborts"`
	Converged    bool            `json:"converged"`
	// MiterOK is always true in a 200 response (a failing miter is an
	// internal error); echoed for symmetry with the CLI output.
	MiterOK   bool   `json:"miter_ok"`
	NodesMade uint64 `json:"nodes_made"`
	// BLIF is the optimized network, re-serialized.
	BLIF string `json:"blif"`
	// Degraded mirrors /minimize: at least one per-node budget tripped and
	// that window was skipped or kept a degraded cover.
	Degraded bool              `json:"degraded,omitempty"`
	Shard    int               `json:"shard"`
	QueueNs  int64             `json:"queue_ns"`
	RunNs    int64             `json:"run_ns"`
	Trace    []json.RawMessage `json:"trace,omitempty"`
}

// handleOptimizeNetwork is the admission path for network jobs: parse,
// validate width, map limits onto the run options, enqueue, wait.
func (s *Server) handleOptimizeNetwork(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	id := s.nextID.Add(1)
	var req NetworkRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		s.counters.invalid.Add(1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reject(w, id, http.StatusRequestEntityTooLarge, "too-large", ErrorResponse{Error: "request body too large"})
			return
		}
		s.reject(w, id, http.StatusBadRequest, "bad-json", ErrorResponse{Error: fmt.Sprintf("invalid request body: %v", err)})
		return
	}
	net, err := logic.ParseBLIFString(req.Input)
	if err != nil {
		s.counters.invalid.Add(1)
		s.reject(w, id, http.StatusBadRequest, "bad-instance", ErrorResponse{Error: err.Error()})
		return
	}
	width := net.PrimaryInputCount() + net.LatchCount()
	if width > s.cfg.MaxVars {
		s.counters.invalid.Add(1)
		s.reject(w, id, http.StatusRequestEntityTooLarge, "too-large",
			ErrorResponse{Error: fmt.Sprintf("network has %d inputs, server accepts at most %d", width, s.cfg.MaxVars)})
		return
	}
	name := req.Heuristic
	if name == "" {
		name = "osm_bt"
	}
	heu := core.ByName(name)
	if heu == nil {
		s.counters.invalid.Add(1)
		s.reject(w, id, http.StatusBadRequest, "bad-heuristic", ErrorResponse{Error: fmt.Sprintf("unknown heuristic %q", name)})
		return
	}
	enq := time.Now()
	t := &task{
		id:       id,
		heu:      heu,
		trace:    req.Trace,
		nodesCap: clampNodes(req.BudgetNodes, s.cfg.MaxNodesPerRequest),
		deadline: headerDeadline(r, deadlineFrom(s.timeoutFor(req.TimeoutMs))),
		ctx:      r.Context(),
		enq:      enq,
		net:      net,
		netWidth: width,
		netReq:   &req,
		netResp:  make(chan *NetworkResponse, 1),
	}
	switch s.enqueue(t) {
	case drainRefused:
		s.counters.drainRejects.Add(1)
		s.reject(w, id, http.StatusServiceUnavailable, "draining", ErrorResponse{Error: "server is draining"})
		return
	case queueFull:
		s.counters.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		s.reject(w, id, http.StatusTooManyRequests, "queue-full",
			ErrorResponse{Error: "queue full, retry later", RetryAfterMs: s.cfg.RetryAfter.Milliseconds()})
		return
	}
	s.counters.accepted.Add(1)
	s.emitServe(obs.ServeEvent{
		Phase: "accepted", ID: id, Shard: -1,
		Format: "blif", Heuristic: name, Queue: len(s.queue),
	})
	resp := <-t.netResp
	if resp == nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "network optimization failed"})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// executeNetwork runs one network job on a worker. The shard's private
// manager is untouched — every window builds and discards its own — but the
// job still occupies the shard, which is the concurrency control.
func (s *Server) executeNetwork(w *worker, t *task) {
	if t.ctx != nil && t.ctx.Err() != nil {
		s.counters.canceled.Add(1)
		t.netResp <- nil
		return
	}
	start := time.Now()
	s.emitServe(obs.ServeEvent{
		Phase: "started", ID: t.id, Shard: w.id,
		Format: "blif", Heuristic: t.heu.Name(), Queue: len(s.queue),
	})
	resp := s.runNetworkJob(t)
	elapsed := time.Since(start)
	w.jobs.Add(1)
	w.busyNs.Add(elapsed.Nanoseconds())
	if resp != nil {
		resp.Shard = w.id
		resp.QueueNs = start.Sub(t.enq).Nanoseconds()
		resp.RunNs = elapsed.Nanoseconds()
		total := time.Since(t.enq)
		s.lat.observe(total.Nanoseconds())
		s.counters.finished.Add(1)
		if resp.Degraded {
			s.counters.degraded.Add(1)
			s.emitServe(obs.ServeEvent{Phase: "degraded", ID: t.id, Shard: w.id, Reason: "node-budget"})
		}
		s.emitServe(obs.ServeEvent{
			Phase: "finished", ID: t.id, Shard: w.id, Status: 200,
			Queue: len(s.queue), Duration: total,
		})
	} else {
		s.counters.failed.Add(1)
		s.emitServe(obs.ServeEvent{
			Phase: "finished", ID: t.id, Shard: w.id, Status: 500, Queue: len(s.queue),
		})
	}
	t.netResp <- resp
}

// runNetworkJob maps the request onto network.Optimize and serializes the
// rewritten netlist. A nil return is an internal failure — a panic, a
// failing final miter, or an unserializable result.
func (s *Server) runNetworkJob(t *task) (resp *NetworkResponse) {
	defer func() {
		if r := recover(); r != nil {
			resp = nil
		}
	}()
	buf := &obs.Buffer{}
	res, err := network.Optimize(t.net, network.Options{
		Heuristic:       core.Instrument(t.heu, buf),
		FaninLevels:     t.netReq.FaninLevels,
		FanoutLevels:    t.netReq.FanoutLevels,
		MaxWindowInputs: t.netReq.MaxWindowInputs,
		MaxSweeps:       t.netReq.MaxSweeps,
		NodeBudget:      t.nodesCap,
		Deadline:        t.deadline,
		Ctx:             t.ctx,
		Trace:           buf,
	})
	if err != nil {
		return nil
	}
	if res.Aborts > 0 {
		s.counters.aborts.Add(uint64(res.Aborts))
	}
	resp = &NetworkResponse{
		ID:           t.id,
		Heuristic:    t.heu.Name(),
		Inputs:       t.netWidth,
		InitialNodes: res.InitialNodes,
		FinalNodes:   res.FinalNodes,
		InitialCost:  res.InitialCost,
		FinalCost:    res.FinalCost,
		Rewrites:     res.Rewrites,
		Aborts:       res.Aborts,
		Converged:    res.Converged,
		MiterOK:      res.MiterOK,
		NodesMade:    res.NodesMade,
		Degraded:     res.Aborts > 0,
	}
	for _, sw := range res.Sweeps {
		resp.Sweeps = append(resp.Sweeps, SweepSnapshot{
			Cost: sw.Cost, Nodes: sw.Nodes,
			Rewrites: sw.Rewrites, Aborts: sw.Aborts, Skipped: sw.Skipped,
		})
	}
	var blif strings.Builder
	if err := logic.WriteBLIF(&blif, t.net); err != nil {
		return nil
	}
	resp.BLIF = blif.String()
	s.obsMu.Lock()
	buf.ReplayTo(&s.heur)
	if s.cfg.Trace != nil {
		buf.ReplayTo(s.cfg.Trace)
	}
	s.obsMu.Unlock()
	if t.trace {
		resp.Trace = eventsJSON(buf.Events)
	}
	return resp
}
