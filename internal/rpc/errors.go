package rpc

import (
	"context"
	"errors"
	"fmt"
)

// Code classifies an error for transport across the wire. Error identity
// (errors.Is) does not survive marshalling, so the error frame carries a
// one-byte code next to the message; clients get it back as
// RemoteError.Code with errors.Is support against the sentinels below.
type Code uint8

const (
	// CodeUnknown is an unclassified server-side error.
	CodeUnknown Code = iota
	// CodeInvalid marks a malformed or semantically invalid request
	// (e.g. a plan that does not unmarshal). Never retryable.
	CodeInvalid
	// CodeNotFound marks a missing object, bucket or method.
	CodeNotFound
	// CodeUnavailable marks a dead or unreachable peer: the canonical
	// retryable condition.
	CodeUnavailable
	// CodeCanceled propagates a context cancellation.
	CodeCanceled
	// CodeDeadlineExceeded propagates a context deadline expiry.
	CodeDeadlineExceeded
	// CodeOverloaded marks load shedding: an admission controller refused
	// the request because the system is past its concurrency or memory
	// budget. Retryable with backoff — the condition heals as queries
	// drain.
	CodeOverloaded
	// CodeOverLimit marks a well-formed request one part of which exceeds
	// a size cap the peer enforces (a storage node's bloom-filter cap).
	// Never retryable as sent; the caller may resend it without that part.
	CodeOverLimit

	codeMax
)

func (c Code) String() string {
	switch c {
	case CodeUnknown:
		return "unknown"
	case CodeInvalid:
		return "invalid"
	case CodeNotFound:
		return "not-found"
	case CodeUnavailable:
		return "unavailable"
	case CodeCanceled:
		return "canceled"
	case CodeDeadlineExceeded:
		return "deadline-exceeded"
	case CodeOverloaded:
		return "overloaded"
	case CodeOverLimit:
		return "over-limit"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// Sentinels for errors.Is matching at call sites. Both RemoteError (the
// decoded wire form) and WithCode wrappers (the server-side form) match
// the sentinel of their code, so callers never string-match messages.
var (
	ErrInvalid     = errors.New("rpc: invalid request")
	ErrNotFound    = errors.New("rpc: not found")
	ErrUnavailable = errors.New("rpc: unavailable")
	// ErrOverloaded is the stable admission-control rejection: the peer
	// (or the local engine) shed the request past its concurrency or
	// memory budget. Callers back off and retry, or surface the rejection.
	ErrOverloaded = errors.New("rpc: overloaded")
	// ErrOverLimit is the size-cap refusal: the peer understood the request
	// and declined one part of it for its size, not the request itself.
	ErrOverLimit = errors.New("rpc: over limit")
)

// ErrFrameTooLarge marks a frame rejected on the send side for exceeding
// the transport's frame-length limit. It carries CodeInvalid (the
// payload will not shrink on retry), so retry policies and the pushdown
// fallback classify it as permanent.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds size limit")

// oversizeError builds the send-side rejection for a frame of frameLen
// bytes. The connection has not been written to and remains usable.
func oversizeError(frameLen int) error {
	return WithCode(fmt.Errorf("%w: frame length %d exceeds limit %d",
		ErrFrameTooLarge, frameLen, maxFrameLimit.Load()), CodeInvalid)
}

// sentinel returns the errors.Is target for a code, nil when none.
func (c Code) sentinel() error {
	switch c {
	case CodeInvalid:
		return ErrInvalid
	case CodeNotFound:
		return ErrNotFound
	case CodeUnavailable:
		return ErrUnavailable
	case CodeCanceled:
		return context.Canceled
	case CodeDeadlineExceeded:
		return context.DeadlineExceeded
	case CodeOverloaded:
		return ErrOverloaded
	case CodeOverLimit:
		return ErrOverLimit
	}
	return nil
}

// WithCode tags err with a wire code so that, after crossing the RPC
// boundary, the client-side RemoteError matches the code's sentinel.
func WithCode(err error, code Code) error {
	if err == nil {
		return nil
	}
	return &codedError{code: code, err: err}
}

type codedError struct {
	code Code
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

func (e *codedError) Is(target error) bool {
	s := e.code.sentinel()
	return s != nil && target == s
}

// ErrorCode derives the wire code for an arbitrary handler error. An
// explicit WithCode wins; a proxied RemoteError keeps its code (so a
// frontend forwarding a node failure preserves classification); local
// transport failures become CodeUnavailable.
func ErrorCode(err error) Code {
	if err == nil {
		return CodeUnknown
	}
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	var te *TransportError
	if errors.As(err, &te) {
		return CodeUnavailable
	}
	switch {
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadlineExceeded
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ErrUnavailable):
		return CodeUnavailable
	case errors.Is(err, ErrInvalid):
		return CodeInvalid
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrOverLimit):
		return CodeOverLimit
	}
	return CodeUnknown
}

// TransportError wraps a local connection failure (dial refused, peer
// died mid-call, truncated frame). It matches ErrUnavailable under
// errors.Is, which is what retry policies classify on.
type TransportError struct {
	Method string // RPC method in flight ("" for dial)
	Op     string // "dial", "send" or "recv"
	Err    error
}

func (e *TransportError) Error() string {
	if e.Method == "" {
		return fmt.Sprintf("rpc: %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("rpc: %s %s: %v", e.Op, e.Method, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Is reports transport failures as ErrUnavailable.
func (e *TransportError) Is(target error) bool { return target == ErrUnavailable }

// RemoteError wraps an error returned by the server, carrying the wire
// code. errors.Is(err, rpc.ErrNotFound) and friends work through it.
type RemoteError struct {
	Method  string
	Code    Code
	Message string
}

func (e *RemoteError) Error() string {
	if e.Code == CodeUnknown {
		return fmt.Sprintf("rpc: remote error from %s: %s", e.Method, e.Message)
	}
	return fmt.Sprintf("rpc: remote error from %s (%s): %s", e.Method, e.Code, e.Message)
}

// Is matches the sentinel of the remote code.
func (e *RemoteError) Is(target error) bool {
	s := e.Code.sentinel()
	return s != nil && target == s
}

// errorPayload encodes an error frame body: one code byte, then the
// message.
func errorPayload(err error) []byte {
	msg := err.Error()
	out := make([]byte, 0, 1+len(msg))
	out = append(out, byte(ErrorCode(err)))
	return append(out, msg...)
}

// decodeRemoteError rebuilds a RemoteError from an error frame body.
func decodeRemoteError(method string, payload []byte) *RemoteError {
	if len(payload) == 0 {
		return &RemoteError{Method: method}
	}
	code := Code(payload[0])
	if code >= codeMax {
		code = CodeUnknown
	}
	return &RemoteError{Method: method, Code: code, Message: string(payload[1:])}
}
