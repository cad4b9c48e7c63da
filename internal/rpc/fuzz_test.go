package rpc

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// FuzzReadFrame feeds the frame reader the bytes of a connection it did
// not write: it may refuse them, it must not panic, a frame it returns is
// made of bytes that arrived, what it reports consumed is what it
// consumed, and it never allocates on the word of a length prefix — a
// frame costs at most the first read step plus a multiple of what was
// sent. The parsers of a frame's payload (the request header, the error
// body) get the same bytes.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	if _, err := writeRequest(&good, "ocs.Execute", time.Unix(1, 0), 7, 9, []byte("plan")); err != nil {
		f.Fatal(err)
	}
	if _, err := writeStreamFrame(&good, frameChunk, 3, []byte("batch")); err != nil {
		f.Fatal(err)
	}
	if _, err := writeFrame(&good, frameError, "", errorPayload(ErrOverloaded)); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0, 0})         // a gigabyte claimed, five bytes sent
	f.Add([]byte{5, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})         // method length wraps past the frame
	f.Add([]byte{6, 0, 0, 0, 2, 0xfc, 0xff, 0xff, 0xff, 'x'})    // 5 + method length overflows to 1
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0})                        // shorter than a header
	f.Add([]byte{9, 0, 0, 0, 1, 4, 0, 0, 0, 'p', 'i', 'n', 'g'}) // exact fit, empty payload
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(in)
		for frames := 0; ; frames++ {
			left := r.Len()
			kind, method, payload, total, err := readFrame(r)
			if consumed := int64(left - r.Len()); total != consumed {
				t.Fatalf("frame %d: reports %d bytes consumed, took %d", frames, total, consumed)
			}
			if err != nil {
				break
			}
			if got := int64(4 + 1 + 4 + len(method) + len(payload)); got != total {
				t.Fatalf("frame %d: %d bytes of frame from %d consumed", frames, got, total)
			}
			switch kind {
			case frameRequest:
				if _, _, _, body, err := splitRequest(payload); err == nil && len(body) != len(payload)-reqHeaderSize {
					t.Fatalf("request body of %d bytes from a %d-byte payload", len(body), len(payload))
				}
			case frameError:
				if re := decodeRemoteError(method, payload); re.Code >= codeMax || len(re.Message) > len(payload) {
					t.Fatalf("remote error %+v from a %d-byte payload", re, len(payload))
				}
			}
		}
		runtime.ReadMemStats(&after)
		// Every frame is copied out once (method) and may have been grown
		// into; the bound is loose on purpose — what it catches is an
		// allocation of the size a prefix claims.
		if spent, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*frameReadStep+8*len(in)+1<<16); spent > bound {
			t.Fatalf("%d bytes of input allocated %d bytes (bound %d)", len(in), spent, bound)
		}
	})
}
