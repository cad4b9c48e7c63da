package rpc

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"runtime"
	"testing"
	"time"
)

// seedFrames is the wire form of FuzzReadFrame's first seed — a request, a
// chunk, a credit, an end frame with a trailer, a unary call's empty end
// frame and an error frame — as the writer produced it when every frame
// went out in two writes. The vectored writer must produce the same bytes.
const seedFrames = "2c000000000b0000006f63732e4578656375746540420f000000000007000000000000000900000000000000706c616e" +
	"0a00000003000000006261746368" + "050000000500000000" + "0c0000000400000000747261696c6572" +
	"050000000400000000" + "150000000200000000067270633a206f7665726c6f61646564"

// FuzzReadFrame feeds the frame reader the bytes of a connection it did
// not write: it may refuse them, it must not panic, a frame it returns is
// made of bytes that arrived, what it reports consumed is what it
// consumed, and it never allocates on the word of a length prefix — a
// frame costs at most the first read step plus a multiple of what was
// sent. The input is read twice: straight off the bytes, and back to back
// through a buffered reader of the size every connection gets. The
// parsers of a frame's payload (the request header, the error body) get
// the same bytes.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	fw := &frameWriter{w: &good}
	if _, err := fw.writeRequest("ocs.Execute", time.Unix(1, 0), 7, 9, []byte("plan")); err != nil {
		f.Fatal(err)
	}
	if _, err := fw.writeFrame(frameChunk, "", nil, []byte("batch")); err != nil {
		f.Fatal(err)
	}
	if _, err := fw.writeCredits(1); err != nil {
		f.Fatal(err)
	}
	if _, err := fw.writeFrame(frameEnd, "", nil, []byte("trailer")); err != nil {
		f.Fatal(err)
	}
	if _, err := fw.writeFrame(frameEnd, "", nil, nil); err != nil { // a unary call's empty reply
		f.Fatal(err)
	}
	if _, err := fw.writeFrame(frameError, "", nil, errorPayload(ErrOverloaded)); err != nil {
		f.Fatal(err)
	}
	if got := hex.EncodeToString(good.Bytes()); got != seedFrames {
		f.Fatalf("frame writer changed the wire form:\n got %s\nwant %s", got, seedFrames)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0, 0})         // a gigabyte claimed, five bytes sent
	f.Add([]byte{5, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})         // method length wraps past the frame
	f.Add([]byte{6, 0, 0, 0, 2, 0xfc, 0xff, 0xff, 0xff, 'x'})    // 5 + method length overflows to 1
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0})                        // shorter than a header
	f.Add([]byte{9, 0, 0, 0, 1, 4, 0, 0, 0, 'p', 'i', 'n', 'g'}) // exact fit, empty payload
	f.Fuzz(func(t *testing.T, in []byte) {
		src := bytes.NewReader(in)
		readFrames(t, in, src, src.Len)
		src.Reset(in)
		buffered := bufio.NewReaderSize(src, readBufferSize)
		readFrames(t, in, buffered, func() int { return src.Len() + buffered.Buffered() })
	})
}

// readFrames reads frames off r until readFrame refuses one, holding each
// to FuzzReadFrame's invariants; left reports the input bytes not yet
// taken from r.
func readFrames(t *testing.T, in []byte, r io.Reader, left func() int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for frames := 0; ; frames++ {
		was := left()
		kind, method, payload, total, err := readFrame(r)
		if consumed := int64(was - left()); total != consumed {
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
}
