package server

import (
	"strings"

	"repro/internal/audit"
	"repro/shill"
)

// RunRequest is the body of POST /v1/run. Exactly one of Script,
// ScriptName, or Argv selects what to execute.
type RunRequest struct {
	// Tenant names the isolation domain; each tenant runs on its own
	// machine (own kernel, filesystem image, network stack, audit log).
	Tenant string `json:"tenant"`
	// Script is inline ambient SHILL source.
	Script string `json:"script,omitempty"`
	// ScriptName resolves a script through the tenant machine's
	// resolver chain (the shipped scripts of examples/scripts by default).
	ScriptName string `json:"scriptName,omitempty"`
	// Args, when set, is bound as the immutable list `args` in the
	// ambient script's scope (spliced after the #lang line).
	Args []string `json:"args,omitempty"`
	// Argv runs a native executable instead of a script — the
	// "Baseline" configuration of the case studies.
	Argv []string `json:"argv,omitempty"`
	// Dir is the working directory for Argv runs.
	Dir string `json:"dir,omitempty"`
	// DeadlineMs bounds the run's wall time; 0 means the server
	// default, and values above the server maximum are clamped. The
	// deadline feeds Session.Run's context: an expired run has its
	// sandboxed process tree killed.
	DeadlineMs int `json:"deadlineMs,omitempty"`
	// Stream selects the NDJSON streaming response: console chunks as
	// they are written, then the final result.
	Stream bool `json:"stream,omitempty"`
}

// RunResponse is the body of a completed POST /v1/run (and the
// "result" event of a streamed one). It embeds shill.Result, so the
// denial provenance arrives exactly as the embedding API reports it.
type RunResponse struct {
	Tenant string `json:"tenant"`
	shill.Result
	// Error is the run's error, if any (a denial, a cancellation, a
	// contract violation), as text; Denials carries the structure.
	Error string `json:"error,omitempty"`
	// Canceled reports that the run was stopped by its deadline or by
	// the client going away.
	Canceled bool `json:"canceled,omitempty"`
	// QueuedMs is how long the run waited for a global slot.
	QueuedMs float64 `json:"queuedMs"`
}

// StreamEvent is one NDJSON line of a streamed run: a console chunk,
// a truncation marker, or the final result.
type StreamEvent struct {
	Console string `json:"console,omitempty"`
	// Truncated reports that the server dropped this many of the oldest
	// buffered console bytes because the client read slower than the
	// script wrote (the stream buffer is bounded); the next console
	// event resumes after the gap.
	Truncated int64        `json:"truncated,omitempty"`
	Result    *RunResponse `json:"result,omitempty"`
}

// WhyDeniedResponse is the body of GET /v1/audit/why-denied — the
// shill-audit query path served over the wire.
type WhyDeniedResponse struct {
	Tenant   string              `json:"tenant"`
	Since    uint64              `json:"since"`
	AuditSeq uint64              `json:"auditSeq"`
	Denials  []audit.Explanation `json:"denials"`
}

// TraceResponse is the body of GET /v1/trace: the tenant machine's
// span stream after Since (Seq is the recorder's current sequence
// point — pass it back as ?since for an incremental poll), plus the
// slowest complete traces the server's flight recorder retains for the
// tenant.
type TraceResponse struct {
	Tenant  string        `json:"tenant"`
	Since   uint64        `json:"since"`
	Seq     uint64        `json:"seq"`
	Spans   []shill.Span  `json:"spans"`
	Slowest []FlightTrace `json:"slowest"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// validTenant bounds tenant names: 1-64 chars of [A-Za-z0-9._-].
func validTenant(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// spliceArgs binds args as the immutable list `args` in an ambient
// script by inserting the binding right after the #lang line, using
// only the escapes the SHILL lexer understands.
func spliceArgs(src string, args []string) string {
	var b strings.Builder
	b.WriteString("args = [")
	for i, a := range args {
		if i > 0 {
			b.WriteString(", ")
		}
		quoteShill(&b, a)
	}
	b.WriteString("];\n")
	binding := b.String()
	if i := strings.Index(src, "\n"); i >= 0 {
		return src[:i+1] + binding + src[i+1:]
	}
	return src + "\n" + binding
}

// quoteShill emits a double-quoted SHILL string literal (escapes: \n,
// \t, \", \\ — the set the lexer understands).
func quoteShill(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}
