package core

import (
	"encoding/json"
	"net/http"
	"sync"
)

// The /v1 surface wraps every endpoint in one discipline: a JSON envelope
// ({"data": ...} on success, {"error": {code, message, status}} on
// failure), POST-only mutations with a 405 + Allow header otherwise, and
// an audit record for every mutating call.

// allowedMethods renders the endpoint's Allow header.
func (ep endpoint) allowedMethods() string {
	switch {
	case ep.audit == "":
		return "GET"
	case ep.mutates != nil:
		// Conditionally mutating (sql): reads over GET, exec over POST.
		return "GET, POST"
	default:
		return "POST"
	}
}

// methodCheck enforces the POST-only-mutations rule.
func (ep endpoint) methodCheck(r *http.Request) *apiError {
	switch {
	case ep.audit == "":
		if r.Method != http.MethodGet {
			return apiErrorf(http.StatusMethodNotAllowed, "method_not_allowed",
				"%s is read-only; use GET", r.URL.Path)
		}
	case ep.mutates != nil:
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			return apiErrorf(http.StatusMethodNotAllowed, "method_not_allowed",
				"use GET to read or POST to mutate %s", r.URL.Path)
		}
		if ep.mutates(r) && r.Method != http.MethodPost {
			return apiErrorf(http.StatusMethodNotAllowed, "method_not_allowed",
				"mutating %s requires POST", r.URL.Path)
		}
	default:
		if r.Method != http.MethodPost {
			return apiErrorf(http.StatusMethodNotAllowed, "method_not_allowed",
				"%s mutates the cluster; use POST", r.URL.Path)
		}
	}
	return nil
}

// handler serves one endpoint, counting the request and auditing the call.
func (a *auditLog) handler(ep endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a.requests.With(ep.name).Inc()
		if aerr := ep.methodCheck(r); aerr != nil {
			w.Header().Set("Allow", ep.allowedMethods())
			writeV1Error(w, aerr)
			return
		}
		payload, aerr := ep.run(r)
		if aerr == nil && ep.fanout != nil {
			payload, aerr = ep.fanout(r, payload)
		}
		a.recordOp(ep, r, aerr)
		if aerr != nil {
			writeV1Error(w, aerr)
			return
		}
		writeV1Data(w, payload)
	}
}

// recordOp records a mutating call's outcome; reads and non-mutating sql
// queries pass through unrecorded.
func (a *auditLog) recordOp(ep endpoint, r *http.Request, aerr *apiError) {
	if ep.audit == "" || (ep.mutates != nil && !ep.mutates(r)) {
		return
	}
	e := AuditEntry{
		Actor:   auditActor(r),
		Remote:  r.RemoteAddr,
		Op:      ep.audit,
		Outcome: "ok",
		Status:  http.StatusOK,
	}
	if ep.detail != nil {
		e.Detail = ep.detail(r)
	}
	if aerr != nil {
		e.Outcome = "error"
		e.Error = aerr.Message
		e.Status = aerr.Status
	}
	a.record(e)
}

// auditActor identifies the caller: the X-Rocks-Actor header when the
// client sends one (the cmd tools send $USER), "anonymous" otherwise.
func auditActor(r *http.Request) string {
	if a := r.Header.Get("X-Rocks-Actor"); a != "" {
		return a
	}
	return "anonymous"
}

// jsonAppender is a payload that appends its own JSON: the three whose
// length is the fleet's (nodes, dbreport, sql). Each appends exactly what
// json.Marshal renders for it (FuzzV1Reply), offering b to flush as it goes:
// flush hands back a buffer to go on appending to, emptied if it was full.
// Not json.Marshaler: encoding/json re-scans and compacts whatever a
// MarshalJSON returns, which for a 400 KB listing was half the handler.
type jsonAppender interface {
	appendJSON(b []byte, flush func([]byte) []byte) []byte
}

// A reply is appended into a buffer of fixed capacity that is written out
// whenever it passes replyFlushAt, so what a connection holds while it
// answers does not grow with the fleet. The capacity leaves room for the
// largest single append between two flushes (an escaped window of a string).
const (
	replyFlushAt = 16 << 10
	replyBufCap  = 32 << 10
)

var replyBufs = sync.Pool{New: func() any { return new([replyBufCap]byte) }}

// writeV1Data is the one writer of the {"data": ...} envelope. A payload
// that is not a jsonAppender is rendered by encoding/json, as ever, and its
// bytes are written from where they are rather than copied through the buffer.
func writeV1Data(w http.ResponseWriter, v interface{}) {
	a, appends := v.(jsonAppender)
	var enc []byte
	if !appends {
		var err error
		if enc, err = json.Marshal(v); err != nil {
			writeV1Error(w, apiErrorf(http.StatusInternalServerError, "encode_failed", "%v", err))
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	buf := replyBufs.Get().(*[replyBufCap]byte)
	// A Write that fails means the client has gone; there is no one to tell.
	flush := func(b []byte) []byte {
		if len(b) < replyFlushAt {
			return b
		}
		w.Write(b)
		return b[:0]
	}
	b := append(buf[:0], `{"data":`...)
	if appends {
		b = a.appendJSON(b, flush)
	} else {
		w.Write(b)
		w.Write(enc)
		b = b[:0]
	}
	w.Write(append(b, "}\n"...))
	replyBufs.Put(buf)
}

func writeV1Error(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(struct {
		Error *apiError `json:"error"`
	}{e})
}
