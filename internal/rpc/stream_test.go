package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"prestocs/internal/telemetry"
)

func startStreamServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	checkGoroutines(t)
	s := NewServer()
	// Streams n chunks "chunk-0".."chunk-(n-1)" where n = payload[0],
	// then ends with trailer "done".
	s.RegisterStream("count", func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		n := int(p[0])
		for i := 0; i < n; i++ {
			if err := send([]byte(fmt.Sprintf("chunk-%d", i))); err != nil {
				return nil, err
			}
		}
		return []byte("done"), nil
	})
	// Sends two chunks then fails mid-stream.
	s.RegisterStream("midfail", func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		send([]byte("a"))
		send([]byte("b"))
		return nil, errors.New("exploded after 2 chunks")
	})
	// Fails before sending anything.
	s.RegisterStream("earlyfail", func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		return nil, errors.New("refused")
	})
	s.Register("unary", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return s, c
}

func TestStreamBasic(t *testing.T) {
	_, c := startStreamServer(t)
	st, err := c.Stream(context.Background(), "count", []byte{3})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		chunk, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(chunk))
	}
	if len(got) != 3 || got[0] != "chunk-0" || got[2] != "chunk-2" {
		t.Errorf("chunks = %v", got)
	}
	if string(st.Trailer()) != "done" {
		t.Errorf("trailer = %q", st.Trailer())
	}
	// Recv after EOF keeps returning EOF.
	if _, err := st.Recv(); err != io.EOF {
		t.Errorf("recv after EOF = %v", err)
	}
}

func TestStreamZeroChunks(t *testing.T) {
	_, c := startStreamServer(t)
	st, err := c.Stream(context.Background(), "count", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("expected immediate EOF, got %v", err)
	}
	if string(st.Trailer()) != "done" {
		t.Errorf("trailer = %q", st.Trailer())
	}
}

func TestStreamErrorMidStream(t *testing.T) {
	_, c := startStreamServer(t)
	st, err := c.Stream(context.Background(), "midfail", nil)
	if err != nil {
		t.Fatal(err)
	}
	var chunks int
	var finalErr error
	for {
		_, err := st.Recv()
		if err != nil {
			finalErr = err
			break
		}
		chunks++
	}
	if chunks != 2 {
		t.Errorf("chunks before failure = %d", chunks)
	}
	var re *RemoteError
	if !errors.As(finalErr, &re) || re.Message != "exploded after 2 chunks" {
		t.Errorf("mid-stream error = %v", finalErr)
	}
	// The stream stays failed.
	if _, err := st.Recv(); !errors.As(err, &re) {
		t.Errorf("recv after failure = %v", err)
	}
}

func TestStreamEarlyError(t *testing.T) {
	_, c := startStreamServer(t)
	st, err := c.Stream(context.Background(), "earlyfail", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv()
	var re *RemoteError
	if !errors.As(err, &re) || re.Message != "refused" {
		t.Errorf("early error = %v", err)
	}
}

func TestStreamUnknownMethod(t *testing.T) {
	_, c := startStreamServer(t)
	st, err := c.Stream(context.Background(), "missing", nil)
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if _, err := st.Recv(); !errors.As(err, &re) {
		t.Errorf("unknown stream method = %v", err)
	}
}

func TestStreamConnReuseAfterCleanEnd(t *testing.T) {
	_, c := startStreamServer(t)
	for i := 0; i < 5; i++ {
		st, err := c.Stream(context.Background(), "count", []byte{2})
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := st.Recv(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle != 1 {
		t.Errorf("drained streams should reuse one connection, idle=%d", idle)
	}
}

func TestStreamCloseWithoutDrainDiscardsConn(t *testing.T) {
	_, c := startStreamServer(t)
	st, err := c.Stream(context.Background(), "count", []byte{5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle != 0 {
		t.Errorf("abandoned stream must not pool its connection, idle=%d", idle)
	}
	// The client still works: a fresh connection is dialed.
	if _, err := c.Call(context.Background(), "unary", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestStreamInterleavedWithUnary(t *testing.T) {
	_, c := startStreamServer(t)
	st, err := c.Stream(context.Background(), "count", []byte{4})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := st.Recv(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Call(context.Background(), "unary", []byte("after-stream"))
	if err != nil || string(resp) != "after-stream" {
		t.Errorf("unary after stream = %q, %v", resp, err)
	}
}

func TestStreamMetersPerChunk(t *testing.T) {
	s, c := startStreamServer(t)
	c.Meter.Reset()
	s.Meter.Reset()
	st, err := c.Stream(context.Background(), "count", []byte{10})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := st.Recv(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	// 10 chunks + end frame: client received bytes for all frames, one
	// completed call.
	if c.Meter.Received() < 10*7 {
		t.Errorf("client received = %d", c.Meter.Received())
	}
	if c.Meter.Calls() != 1 {
		t.Errorf("calls = %d", c.Meter.Calls())
	}
	if s.Meter.Sent() < 10*7 {
		t.Errorf("server sent = %d", s.Meter.Sent())
	}
}

func TestStreamConcurrent(t *testing.T) {
	_, c := startStreamServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n byte) {
			defer wg.Done()
			st, err := c.Stream(context.Background(), "count", []byte{n})
			if err != nil {
				errs <- err
				return
			}
			count := 0
			for {
				_, err := st.Recv()
				if err == io.EOF {
					break
				}
				if err != nil {
					errs <- err
					return
				}
				count++
			}
			if count != int(n) {
				errs <- fmt.Errorf("want %d chunks, got %d", n, count)
			}
		}(byte(i % 8))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestErrorReplyKeepsConnection: an error frame ends a call as an end
// frame does, so the connection goes back to the pool and the next call
// reuses it instead of dialing — after a unary call and after a stream
// that failed behind its chunks.
func TestErrorReplyKeepsConnection(t *testing.T) {
	cases := []struct {
		name, okMethod string
		start          func(*testing.T) (*Server, *Client)
		fail           func(*Client) error
	}{
		{"unary", "echo", startEcho, func(c *Client) error {
			_, err := c.Call(context.Background(), "fail", nil)
			return err
		}},
		{"stream", "unary", startStreamServer, func(c *Client) error {
			st, err := c.Stream(context.Background(), "midfail", nil)
			if err != nil {
				return err
			}
			for {
				if _, err := st.Recv(); err != nil {
					return err
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := tc.start(t)
			c.Metrics = telemetry.NewRegistry()
			var remote *RemoteError
			if err := tc.fail(c); !errors.As(err, &remote) {
				t.Fatalf("err = %v, want a RemoteError", err)
			}
			if n := c.IdleConns(); n != 1 {
				t.Errorf("idle = %d after an error reply, want 1", n)
			}
			dials := c.Metrics.CounterValue(telemetry.MetricRPCPoolDials)
			if _, err := c.Call(context.Background(), tc.okMethod, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if got := c.Metrics.CounterValue(telemetry.MetricRPCPoolDials); got != dials {
				t.Errorf("dials %d -> %d: the call after an error reply did not reuse the connection", dials, got)
			}
		})
	}
}

// fakeStreamServer accepts one connection, reads the request frame and
// writes the given raw bytes, simulating a malformed or dying peer.
func fakeStreamServer(t *testing.T, raw func(conn net.Conn)) string {
	t.Helper()
	checkGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, _, _, err := readFrame(conn); err != nil {
			return
		}
		raw(conn)
	}()
	return ln.Addr().String()
}

func TestStreamPeerDiesMidStream(t *testing.T) {
	addr := fakeStreamServer(t, func(conn net.Conn) {
		writeFrame(conn, frameChunk, "", nil, []byte("only-chunk"))
		// Close without end frame: the peer died mid-stream.
	})
	c := Dial(addr)
	defer c.Close()
	st, err := c.Stream(context.Background(), "any", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv()
	if err == nil || err == io.EOF {
		t.Fatalf("dead peer must surface an error, got %v", err)
	}
}

func TestStreamTruncatedChunkFrame(t *testing.T) {
	addr := fakeStreamServer(t, func(conn net.Conn) {
		// Declare a 100-byte frame but send only part of it, then die.
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 100)
		conn.Write(hdr[:])
		conn.Write([]byte{frameChunk, 0, 0, 0, 0, 'x', 'y'})
	})
	c := Dial(addr)
	defer c.Close()
	st, err := c.Stream(context.Background(), "any", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv()
	if err == nil || err == io.EOF {
		t.Fatalf("truncated frame must surface an error, got %v", err)
	}
}

func TestStreamGarbageFrameKind(t *testing.T) {
	addr := fakeStreamServer(t, func(conn net.Conn) {
		writeFrame(conn, 9, "", nil, []byte("wat"))
	})
	c := Dial(addr)
	defer c.Close()
	st, err := c.Stream(context.Background(), "any", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err == nil || err == io.EOF {
		t.Fatalf("garbage frame kind must error, got %v", err)
	}
}

func TestServeStreamHandlerSendAfterClientGone(t *testing.T) {
	// A handler that keeps sending after the client hangs up must get a
	// send error and the server must survive.
	checkGoroutines(t)
	s := NewServer()
	sent := make(chan error, 1)
	s.RegisterStream("forever", func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		payload := bytes.Repeat([]byte{1}, 1<<16)
		for i := 0; ; i++ {
			if err := send(payload); err != nil {
				sent <- err
				return nil, err
			}
		}
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := Dial(addr)
	st, err := c.Stream(context.Background(), "forever", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	c.Close()
	if err := <-sent; err == nil {
		t.Error("handler send to dead client should error")
	}
}
