package server

import (
	"fmt"
	"strconv"

	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/storage"
)

// WireValue is the protocol's typed scalar: every storage.Value crossing
// the wire is tagged with its kind so the receiving side reconstructs the
// exact engine value — TIME and DATE stay distinguishable from INT, and
// NULL from the zero of any kind. V is always a string; numeric kinds use
// their decimal rendering so the codec never depends on JSON's float64
// number model (an int64 above 2^53 survives the round trip).
type WireValue struct {
	T string `json:"t"`           // null | int | float | str | bool | time | date
	V string `json:"v,omitempty"` // empty for null
}

// EncodeValue converts an engine value to its wire form.
func EncodeValue(v storage.Value) WireValue {
	switch v.K {
	case storage.KindNull:
		return WireValue{T: "null"}
	case storage.KindInt:
		return WireValue{T: "int", V: strconv.FormatInt(v.I, 10)}
	case storage.KindFloat:
		return WireValue{T: "float", V: strconv.FormatFloat(v.F, 'g', -1, 64)}
	case storage.KindString:
		return WireValue{T: "str", V: v.S}
	case storage.KindBool:
		if v.I != 0 {
			return WireValue{T: "bool", V: "t"}
		}
		return WireValue{T: "bool", V: "f"}
	case storage.KindTime:
		return WireValue{T: "time", V: strconv.FormatInt(v.I, 10)}
	case storage.KindDate:
		return WireValue{T: "date", V: strconv.FormatInt(v.I, 10)}
	}
	return WireValue{T: "null"}
}

// DecodeValue converts a wire value back to an engine value, rejecting
// unknown tags and malformed payloads instead of guessing.
func DecodeValue(w WireValue) (storage.Value, error) {
	switch w.T {
	case "null", "":
		return storage.Null, nil
	case "int", "time", "date":
		i, err := strconv.ParseInt(w.V, 10, 64)
		if err != nil {
			return storage.Null, fmt.Errorf("server: bad %s value %q", w.T, w.V)
		}
		switch w.T {
		case "time":
			return storage.NewTime(i), nil
		case "date":
			return storage.NewDate(i), nil
		}
		return storage.NewInt(i), nil
	case "float":
		f, err := strconv.ParseFloat(w.V, 64)
		if err != nil {
			return storage.Null, fmt.Errorf("server: bad float value %q", w.V)
		}
		return storage.NewFloat(f), nil
	case "str":
		return storage.NewString(w.V), nil
	case "bool":
		switch w.V {
		case "t":
			return storage.NewBool(true), nil
		case "f":
			return storage.NewBool(false), nil
		}
		return storage.Null, fmt.Errorf("server: bad bool value %q (want t or f)", w.V)
	}
	return storage.Null, fmt.Errorf("server: unknown value tag %q", w.T)
}

// EncodeRow converts an engine row for the stream.
func EncodeRow(r storage.Row) []WireValue {
	out := make([]WireValue, len(r))
	for i, v := range r {
		out[i] = EncodeValue(v)
	}
	return out
}

// DecodeArgs converts a request's bound-argument list.
func DecodeArgs(ws []WireValue) ([]storage.Value, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	out := make([]storage.Value, len(ws))
	for i, w := range ws {
		v, err := DecodeValue(w)
		if err != nil {
			return nil, fmt.Errorf("arg %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// ---- request / response bodies (application/json) ----

// OpenSessionRequest opens an authenticated session. Purpose may be empty
// when the bearer token already pins one.
type OpenSessionRequest struct {
	Purpose string `json:"purpose,omitempty"`
}

// OpenSessionResponse reports the session the server established.
type OpenSessionResponse struct {
	SessionID string `json:"session_id"`
	Querier   string `json:"querier"`
	Purpose   string `json:"purpose"`
}

// QueryRequest runs one statement; Args bind the statement's `?`
// placeholders in lexical order.
type QueryRequest struct {
	SQL  string      `json:"sql"`
	Args []WireValue `json:"args,omitempty"`
}

// RewriteRequest asks for the policy-rewritten form of a statement
// without executing it. Dialect "" (or "sieve") returns the middleware's
// own dialect; "mysql" / "postgres" return the emitted SQL with its
// lifted bound-args list.
type RewriteRequest struct {
	SQL     string `json:"sql"`
	Dialect string `json:"dialect,omitempty"`
}

// RewriteResponse is the rewritten statement.
type RewriteResponse struct {
	SQL  string      `json:"sql"`
	Args []WireValue `json:"args,omitempty"`
}

// PrepareRequest registers a server-side prepared statement.
type PrepareRequest struct {
	SQL string `json:"sql"`
}

// PrepareResponse identifies the statement; NumInput is the number of `?`
// placeholders each execution must bind.
type PrepareResponse struct {
	StmtID   string `json:"stmt_id"`
	NumInput int    `json:"num_input"`
}

// StmtQueryRequest executes a prepared statement.
type StmtQueryRequest struct {
	Args []WireValue `json:"args,omitempty"`
}

// ConditionRequest is one object condition of a policy: attr op value,
// with op one of = != < <= > >=.
type ConditionRequest struct {
	Attr  string    `json:"attr"`
	Op    string    `json:"op"`
	Value WireValue `json:"value"`
}

// PolicyRequest creates a policy (admin tokens only).
type PolicyRequest struct {
	Owner      int64              `json:"owner"`
	Querier    string             `json:"querier"`
	Purpose    string             `json:"purpose"`
	Relation   string             `json:"relation"`
	Action     string             `json:"action,omitempty"` // default "allow"
	Conditions []ConditionRequest `json:"conditions,omitempty"`
}

// PolicyResponse reports the stored policy's id, usable with DELETE
// /v1/policies/{id}.
type PolicyResponse struct {
	ID int64 `json:"id"`
}

// RowRequest carries one row for the admin row-mutation endpoints, in
// the table's column order.
type RowRequest struct {
	Values []WireValue `json:"values"`
}

// RowResponse reports the row id an insert assigned (or an update/delete
// touched), usable with PUT/DELETE /v1/tables/{table}/rows/{id}.
type RowResponse struct {
	RowID int64 `json:"row_id"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is GET /healthz's body (503 while draining).
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Sessions int64  `json:"sessions_open"`
}

// StreamCounters is the per-query work tally attached to a stream's done
// line.
type StreamCounters struct {
	TuplesRead      int64 `json:"tuples_read"`
	SegmentsScanned int64 `json:"segments_scanned"`
	SegmentsPruned  int64 `json:"segments_pruned"`
	PolicyEvals     int64 `json:"policy_evals"`
	UDFInvocations  int64 `json:"udf_invocations"`
	// Rewrite-layer cache effectiveness for this query: guard-state
	// resolutions served from the signature cache vs. recomputed, and
	// (prepared statements only) plan-token lookups.
	GuardCacheHits   int64 `json:"guard_cache_hits,omitempty"`
	GuardCacheMisses int64 `json:"guard_cache_misses,omitempty"`
	PlanCacheHits    int64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses  int64 `json:"plan_cache_misses,omitempty"`
}

// StreamLine is one line of a query response (application/x-ndjson).
// Exactly one group of fields is set per line: Columns on the first line,
// Row per tuple, then a terminal line with either Done (plus Rows and
// Counters) or Error. A stream that ends without
// a terminal line was cut mid-flight and must not be trusted as complete.
//
// The terminal line also carries the request id the server assigned
// (matching the X-Request-Id response header and the server's log
// lines), and — when the query ran with ?trace=1 — the per-phase span
// tree of its execution.
type StreamLine struct {
	Columns   []string        `json:"columns,omitempty"`
	Row       []WireValue     `json:"row,omitempty"`
	Done      bool            `json:"done,omitempty"`
	Rows      int64           `json:"rows,omitempty"`
	Error     string          `json:"error,omitempty"`
	Counters  *StreamCounters `json:"counters,omitempty"`
	RequestID string          `json:"req_id,omitempty"`
	Trace     *obs.SpanNode   `json:"trace,omitempty"`
}
