package server

import (
	"bytes"
	"encoding/json"
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

// AppendRowLine appends r's stream line, newline included, to dst: the
// bytes json.Encoder writes for StreamLine{Row: …} with each cell as
// EncodeValue renders it, produced without reflection or a []WireValue.
func AppendRowLine(dst []byte, r storage.Row) []byte {
	if len(r) == 0 {
		return append(dst, "{}\n"...) // omitempty drops an empty row
	}
	dst = append(dst, `{"row":[`...)
	for i, v := range r {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendCell(dst, v)
	}
	return append(dst, "]}\n"...)
}

// appendCell appends v's WireValue object; a kind EncodeValue does not
// know is a null there too.
func appendCell(dst []byte, v storage.Value) []byte {
	switch v.K {
	case storage.KindInt:
		dst = strconv.AppendInt(append(dst, `{"t":"int","v":"`...), v.I, 10)
	case storage.KindFloat:
		dst = strconv.AppendFloat(append(dst, `{"t":"float","v":"`...), v.F, 'g', -1, 64)
	case storage.KindTime:
		dst = strconv.AppendInt(append(dst, `{"t":"time","v":"`...), v.I, 10)
	case storage.KindDate:
		dst = strconv.AppendInt(append(dst, `{"t":"date","v":"`...), v.I, 10)
	case storage.KindString:
		if v.S == "" {
			return append(dst, `{"t":"str"}`...) // omitempty drops V
		}
		return append(appendString(append(dst, `{"t":"str","v":`...), v.S), '}')
	case storage.KindBool:
		if v.I != 0 {
			return append(dst, `{"t":"bool","v":"t"}`...)
		}
		return append(dst, `{"t":"bool","v":"f"}`...)
	default:
		return append(dst, `{"t":"null"}`...)
	}
	return append(dst, `"}`...)
}

// plainByte reports whether encoding/json copies c into a string
// verbatim: printable ASCII other than the quote, the backslash and the
// three bytes its HTML-safe default escapes.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as a JSON string. Anything but plain bytes goes
// through encoding/json, so escapes, U+2028/U+2029 and invalid UTF-8 come
// out exactly as the Encoder writes them.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ParseRowLine decodes a row line (without its newline) written exactly
// as AppendRowLine writes it, reusing dst's storage. Any other line — a
// columns, done or error line, or a row line with whitespace, reordered
// or extra keys, escapes, non-ASCII bytes, an unknown tag, or a number
// not in its canonical rendering — reports false, and the caller decodes
// it as JSON. It never disagrees with that path: it returns the same
// values and kinds or declines.
func ParseRowLine(line []byte, dst storage.Row) (storage.Row, bool) {
	p, ok := bytes.CutPrefix(line, []byte(`{"row":[`))
	if !ok {
		return dst, false
	}
	dst = dst[:0]
	for {
		var v storage.Value
		if v, p, ok = parseCell(p); !ok {
			return dst, false
		}
		dst = append(dst, v)
		if rest, more := bytes.CutPrefix(p, []byte(",")); more {
			p = rest
			continue
		}
		return dst, string(p) == "]}"
	}
}

// parseCell decodes one canonical WireValue object at the start of b.
func parseCell(b []byte) (storage.Value, []byte, bool) {
	b, ok := bytes.CutPrefix(b, []byte(`{"t":"`))
	if !ok {
		return storage.Null, nil, false
	}
	i := bytes.IndexByte(b, '"')
	if i < 0 {
		return storage.Null, nil, false
	}
	tag := b[:i]
	if rest, ok := bytes.CutPrefix(b[i+1:], []byte("}")); ok {
		switch string(tag) { // the kinds whose V can be empty
		case "null":
			return storage.Null, rest, true
		case "str":
			return storage.NewString(""), rest, true
		}
		return storage.Null, nil, false
	}
	if b, ok = bytes.CutPrefix(b[i+1:], []byte(`,"v":"`)); !ok {
		return storage.Null, nil, false
	}
	if i = bytes.IndexByte(b, '"'); i < 0 {
		return storage.Null, nil, false
	}
	payload := b[:i]
	rest, ok := bytes.CutPrefix(b[i+1:], []byte("}"))
	if !ok || len(payload) == 0 {
		return storage.Null, nil, false
	}
	switch string(tag) {
	case "int", "time", "date":
		n, ok := parseCanonicalInt(payload)
		if !ok {
			return storage.Null, nil, false
		}
		switch tag[0] {
		case 't':
			return storage.NewTime(n), rest, true
		case 'd':
			return storage.NewDate(n), rest, true
		}
		return storage.NewInt(n), rest, true
	case "float":
		f, err := strconv.ParseFloat(string(payload), 64)
		var canon [32]byte
		if err != nil || !bytes.Equal(strconv.AppendFloat(canon[:0], f, 'g', -1, 64), payload) {
			return storage.Null, nil, false
		}
		return storage.NewFloat(f), rest, true
	case "str":
		for _, c := range payload {
			if !plainByte(c) {
				return storage.Null, nil, false
			}
		}
		return storage.NewString(string(payload)), rest, true
	case "bool":
		switch string(payload) {
		case "t":
			return storage.NewBool(true), rest, true
		case "f":
			return storage.NewBool(false), rest, true
		}
	}
	return storage.Null, nil, false
}

// parseCanonicalInt parses b only if it is strconv.AppendInt's rendering
// of an int64: no sign but a leading '-', no leading zeros, no "-0", no
// overflow.
func parseCanonicalInt(b []byte) (int64, bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	// 19 digits hold every int64 and cannot overflow the uint64 below.
	if len(b) == 0 || len(b) > 19 || (b[0] == '0' && (len(b) > 1 || neg)) {
		return 0, false
	}
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return int64(-u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
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
