// Package apiclient is the one client for a frontend's versioned control
// plane — the cmd/ tools, federated frontends talking to each other, and an
// installing node's registry lookup and facts report all go through it: GET
// for reads, POST for mutations, the one /v1 envelope ({"data": ...} /
// {"error": {code, message, status}}) decoded in one place, and the
// caller's identity sent as X-Rocks-Actor so every mutation lands in the
// frontend's audit log with a name attached.
package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"
)

// APIError is the structured error the /v1 surface returns.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// Client talks to one frontend.
type Client struct {
	// Base is the frontend URL, e.g. http://127.0.0.1:8070.
	Base string
	// Actor identifies the caller in the audit log; New defaults it to
	// $USER.
	Actor string
	// HTTP is the underlying client; nil means a 60s-timeout default.
	HTTP *http.Client
}

// New builds a client for the frontend at base.
func New(base string) *Client {
	return &Client{Base: strings.TrimSuffix(base, "/"), Actor: os.Getenv("USER")}
}

// Get performs a read: GET /v1/<op>?<params>, decoding the data envelope
// into out (out may be nil to discard).
func (c *Client) Get(ctx context.Context, op string, params url.Values, out interface{}) error {
	return c.do(ctx, http.MethodGet, op, params, "", nil, out)
}

// Post performs a mutation: POST /v1/<op> with form-encoded params.
func (c *Client) Post(ctx context.Context, op string, params url.Values, out interface{}) error {
	return c.do(ctx, http.MethodPost, op, nil, "application/x-www-form-urlencoded",
		strings.NewReader(params.Encode()), out)
}

// PostJSON posts a JSON document: POST /v1/<op>?<query> with body
// marshalled as the request body — the shape of the telemetry endpoints
// (facts reports, forwarded event batches).
func (c *Client) PostJSON(ctx context.Context, op string, query url.Values, body, out interface{}) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, op, query, "application/json", bytes.NewReader(data), out)
}

// do sends one request and decodes the envelope. An answer that is not a
// well-formed success envelope comes back as an *APIError carrying the HTTP
// status, so callers can tell a server-side failure (5xx, worth retrying)
// from a rejection; a request that got no answer returns the transport
// error.
func (c *Client) do(ctx context.Context, method, op string, query url.Values, contentType string, body io.Reader, out interface{}) error {
	u := c.Base + "/v1/" + op
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.Actor != "" {
		req.Header.Set("X-Rocks-Actor", c.Actor)
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{Timeout: 60 * time.Second}
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var env struct {
		Data  json.RawMessage `json:"data"`
		Error *APIError       `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || (env.Error == nil && resp.StatusCode != http.StatusOK) {
		return &APIError{Code: "bad_response", Status: resp.StatusCode,
			Message: fmt.Sprintf("%s: not a /v1 envelope: %.200s", req.URL.Path, raw)}
	}
	if env.Error != nil {
		return env.Error
	}
	if out == nil || len(env.Data) == 0 {
		return nil
	}
	return json.Unmarshal(env.Data, out)
}
