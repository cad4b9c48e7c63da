package main

import (
	"fmt"
	"io"
	"net"
	"time"
)

// The two reference units every gated timing is divided by.
//
// FROZEN. Editing either unit — its sizes, its loop bodies, even the
// order of its passes — re-baselines every timing metric of the
// benchmark, because each is reported as lo(x) divided by a blend of
// median(unit)/REF (machineFactor). The same goes for the two shares
// below. The units import nothing from this module on purpose: no change
// to the program may move them. TestCPUUnitGolden pins cpu_unit's output.
//
// They exist because this benchmark runs on a shared 2-vCPU VM whose
// host drifts between a fast and a slow regime for tens of minutes at
// a time (README.md, "Noise study"): the same code then reads 20–45 %
// slower, every metric of a run moving together. Dividing by units
// measured in the same seconds removes that common factor.
const (
	// refCPUMs and refRTTMs are what the units cost in the fast regime
	// of the box the benchmark was sized on; they only fix the scale in
	// which calibrated timings are printed.
	refCPUMs = 4.0
	refRTTMs = 0.75

	// The slow regime costs compute ~+26 % and hand-offs ~+54 %, and every
	// op of the program sits between the two, because every op is part
	// kernels and part RPC, wake-ups and scheduler hops. computeShare is
	// the cpu_unit weight for the scan-heavy timings (queries, compaction,
	// cycle CPU, set-up), handoffShare for the sub-5 ms ones (point
	// lookup, commit). Fitted on 216 runs across both regimes.
	computeShare = 2.0 / 3
	handoffShare = 1.0 / 2

	cpuWords    = 512 << 10 // 4 MiB of uint64
	cpuBuckets  = 64 << 10
	cpuCopy     = 256 << 10 // 2 MiB of uint64
	rttRounds   = 32
	rttMsgBytes = 128
)

// calibrator owns the buffers and the loopback echo peer of the units.
type calibrator struct {
	words []uint64
	hist  []uint32
	dst   []uint64

	conn     net.Conn
	msg      []byte
	echoDone chan struct{}
}

// newCalibrator allocates the buffers and starts the echo goroutine,
// which exits when close shuts the connection.
func newCalibrator() (*calibrator, error) {
	c := &calibrator{
		words:    make([]uint64, cpuWords),
		hist:     make([]uint32, cpuBuckets),
		dst:      make([]uint64, cpuCopy),
		msg:      make([]byte, rttMsgBytes),
		echoDone: make(chan struct{}),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		peer, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- peer
	}()
	c.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	peer, ok := <-accepted
	if !ok {
		c.conn.Close()
		return nil, fmt.Errorf("calibrator: accept failed")
	}
	go func() {
		defer close(c.echoDone)
		defer peer.Close()
		buf := make([]byte, rttMsgBytes)
		for {
			if _, err := io.ReadFull(peer, buf); err != nil {
				return
			}
			if _, err := peer.Write(buf); err != nil {
				return
			}
		}
	}()
	return c, nil
}

// close stops the echo goroutine and waits for it.
func (c *calibrator) close() {
	c.conn.Close()
	<-c.echoDone
}

// cpuUnit is the compute reference: on one goroutine, two passes of
// {xorshift fill, filtered sum, 64 Ki-bucket histogram} over 4 MiB,
// then a 2 MiB copy — the sequential-ALU, branchy-scan, random-access
// and streaming-memory mix of a decode + filter + aggregate pipeline.
// It returns a checksum so the compiler cannot drop any pass.
func (c *calibrator) cpuUnit() uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	var sum uint64
	for pass := 0; pass < 2; pass++ {
		for i := range c.words {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.words[i] = x
		}
		for _, w := range c.words {
			if w&7 < 3 {
				sum += w >> 32
			}
		}
		for i := range c.hist {
			c.hist[i] = 0
		}
		for _, w := range c.words {
			c.hist[w>>48]++
		}
		sum += uint64(c.hist[pass+1])
	}
	copy(c.dst, c.words)
	return sum + c.dst[cpuCopy-1]
}

// rttUnit is the hand-off reference: 32 × {128-byte loopback-TCP
// ping-pong with the echo goroutine, one goroutine spawn + channel
// hand-off} — what a point lookup or a commit is made of once its
// compute is small: syscalls, netpoller wake-ups and scheduler hops.
func (c *calibrator) rttUnit() error {
	for i := 0; i < rttRounds; i++ {
		if _, err := c.conn.Write(c.msg); err != nil {
			return err
		}
		if _, err := io.ReadFull(c.conn, c.msg); err != nil {
			return err
		}
		ch := make(chan struct{})
		go func() { ch <- struct{}{} }()
		<-ch
	}
	return nil
}

// sample times both units once, in milliseconds.
func (c *calibrator) sample() (cpuMs, rttMs float64, err error) {
	start := time.Now()
	sink = c.cpuUnit()
	cpuMs = msSince(start)
	start = time.Now()
	err = c.rttUnit()
	rttMs = msSince(start)
	return cpuMs, rttMs, err
}

// sink keeps cpuUnit's result alive.
var sink uint64

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
