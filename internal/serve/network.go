package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"bddmin/internal/core"
	"bddmin/internal/logic"
	"bddmin/internal/network"
	"bddmin/internal/obs"
)

// POST /optimize-network: whole-network don't-care optimization (package
// network) through the same admission path (handleJob), budgets and
// observability as /minimize. A network job flows through the same bounded
// queue and runs on a shard worker, but on private throwaway window
// managers rather than the shard's own — the shard manager's monotone
// growth is driven by single instances, not whole netlists. Network
// results are never cached: the response embeds a full rewritten netlist,
// whose size makes the result cache's byte accounting pointless for the
// hit rates networks see.

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

// handleOptimizeNetwork admits one network job. Its run function
// optimizes the parsed netlist on private window managers.
func (s *Server) handleOptimizeNetwork(w http.ResponseWriter, r *http.Request) {
	var req NetworkRequest
	s.handleJob(w, r, &req, "network optimization failed", func() (job, error) {
		net, err := logic.ParseBLIFString(req.Input)
		if err != nil {
			return job{}, err
		}
		width := net.PrimaryInputCount() + net.LatchCount()
		return job{
			format: "blif", width: width, tooWide: "network has %d inputs",
			heuristic: req.Heuristic, budgetNodes: req.BudgetNodes, timeoutMs: req.TimeoutMs, trace: req.Trace,
			run: func(_ *worker, t *task) reply { return s.optimize(t, net, width, &req) },
		}, nil
	})
}

// optimize is the run function of a network job: it maps the request onto
// network.Optimize and serializes the rewritten netlist. The shard's
// private manager is untouched — every window builds and discards its own
// — but the job still occupies the shard, which is the concurrency
// control. A nil return is an internal failure: a failing final miter or
// an unserializable result.
func (s *Server) optimize(t *task, net *logic.Network, width int, req *NetworkRequest) reply {
	buf := &obs.Buffer{}
	res, err := network.Optimize(net, network.Options{
		Heuristic:       core.Instrument(t.heu, buf),
		FaninLevels:     req.FaninLevels,
		FanoutLevels:    req.FanoutLevels,
		MaxWindowInputs: req.MaxWindowInputs,
		MaxSweeps:       req.MaxSweeps,
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
	resp := &NetworkResponse{
		ID:           t.id,
		Heuristic:    t.heu.Name(),
		Inputs:       width,
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
	if err := logic.WriteBLIF(&blif, net); err != nil {
		return nil
	}
	resp.BLIF = blif.String()
	resp.Trace = s.recordTrace(t, buf)
	return resp
}

// finish implements reply. A degraded network run had a per-node budget
// trip.
func (r *NetworkResponse) finish(shard int, queue, run time.Duration) (bool, string) {
	r.Shard, r.QueueNs, r.RunNs = shard, queue.Nanoseconds(), run.Nanoseconds()
	return r.Degraded, "node-budget"
}
