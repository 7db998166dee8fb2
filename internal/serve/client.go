package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"bddmin/internal/problem"
)

// Client is a minimal bddmind API client, shared by the load generator and
// the CI smoke test. The zero value with a Base URL works; HTTP is the
// customization point for timeouts and transports.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Minimize submits one job. It returns the decoded response on HTTP 200;
// otherwise the status code, the decoded error body, and a nil response
// (err is non-nil only for transport or decoding failures — an HTTP-level
// rejection like 429 is a regular outcome, not an error).
func (c *Client) Minimize(ctx context.Context, req MinimizeRequest) (*MinimizeResponse, int, *ErrorResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/minimize", bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	// Propagate the caller's context deadline as the end-to-end budget so
	// a router (or the server itself) never spends longer on this request
	// than the caller will wait for the answer.
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			hr.Header.Set(DeadlineHeader, fmt.Sprintf("%d", ms))
		}
	}
	res, err := c.httpClient().Do(hr)
	if err != nil {
		return nil, 0, nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		var eb ErrorResponse
		_ = json.NewDecoder(res.Body).Decode(&eb)
		return nil, res.StatusCode, &eb, nil
	}
	var mr MinimizeResponse
	if err := json.NewDecoder(res.Body).Decode(&mr); err != nil {
		return nil, res.StatusCode, nil, fmt.Errorf("serve: decoding response: %w", err)
	}
	// A response that came through a router names the backend that
	// produced it; a direct bddmind response leaves this empty.
	mr.Backend = res.Header.Get(BackendHeader)
	return &mr, res.StatusCode, nil, nil
}

// Healthz fetches /healthz, returning the status code and body.
func (c *Client) Healthz(ctx context.Context) (int, *HealthResponse, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return 0, nil, err
	}
	res, err := c.httpClient().Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	var body HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		return res.StatusCode, nil, err
	}
	return res.StatusCode, &body, nil
}

// Metrics fetches /metrics.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	res, err := c.httpClient().Do(hr)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return nil, fmt.Errorf("serve: /metrics returned %d: %s", res.StatusCode, b)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// RequestFor renders a loaded Problem into its wire form — the bridge
// between the corpus loader and the API.
func RequestFor(p *problem.Problem, heuristic string) MinimizeRequest {
	return MinimizeRequest{
		Format:    string(p.Kind),
		Input:     p.Raw,
		Output:    p.Output,
		Node:      p.Node,
		Heuristic: heuristic,
	}
}

// VerifyResponse checks a response against the problem it answered: the
// instance is rebuilt on a local manager, the serialized cover is loaded
// into it, and the cover condition f·c ≤ g ≤ f + ¬c is evaluated locally —
// the server is not trusted. It also cross-checks the reported cover size
// (BDD sizes are canonical, so client and shard must agree exactly).
func VerifyResponse(p *problem.Problem, resp *MinimizeResponse) error {
	m, in, err := p.NewManager()
	if err != nil {
		return err
	}
	// The serialized cover may mention more variables than the instance
	// needs (shard managers grow monotonically); grow to match.
	for m.NumVars() < resp.CoverVars {
		m.AddVar()
	}
	roots, err := m.ReadFunctions(strings.NewReader(resp.Cover))
	if err != nil {
		return fmt.Errorf("serve: reloading cover of %s: %w", p.Label, err)
	}
	g, ok := roots["g"]
	if !ok {
		return fmt.Errorf("serve: cover of %s has no root g", p.Label)
	}
	if !in.Cover(m, g) {
		return fmt.Errorf("serve: INCORRECT COVER for %s (id %d): g violates f·c ≤ g ≤ f+¬c", p.Label, resp.ID)
	}
	if got := m.Size(g); got != resp.CoverSize {
		return fmt.Errorf("serve: %s (id %d): reported cover size %d, client measures %d", p.Label, resp.ID, resp.CoverSize, got)
	}
	if resp.InputSize > 0 && resp.CoverSize > resp.InputSize {
		return fmt.Errorf("serve: %s (id %d): cover (%d nodes) exceeds |f| (%d)", p.Label, resp.ID, resp.CoverSize, resp.InputSize)
	}
	return nil
}

// WaitHealthy polls /healthz until the server answers 200 or the timeout
// expires — the boot synchronization used by tests and the CI smoke step.
func (c *Client) WaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		status, _, err := c.Healthz(ctx)
		cancel()
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("status %d", status)
			}
			return fmt.Errorf("serve: server not healthy after %s: %w", timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
