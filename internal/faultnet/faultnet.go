// Package faultnet is a fault-injecting TCP proxy for tests. A Proxy
// sits between RPC peers (engine↔frontend or frontend↔node) and can
// refuse new connections, delay traffic, black-hole it, or kill
// connections — either all at once or deterministically after a byte
// threshold, which is how the fault suite cuts a result stream
// mid-flight without sleeping on timing.
package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy forwards TCP connections to a target address, injecting faults
// on demand. All knobs are safe for concurrent use.
type Proxy struct {
	ln     net.Listener
	target string

	mu        sync.Mutex
	pairs     map[*pair]bool
	refuse    bool
	blackhole bool
	delay     time.Duration
	// killAfter arms a one-shot kill: the first connection whose
	// target→client byte count crosses the threshold is severed, then
	// the trigger disarms so recovery traffic flows freely.
	killAfter int64

	wg       sync.WaitGroup
	closed   atomic.Bool
	accepted atomic.Int64
	killed   atomic.Int64
}

type pair struct {
	cli, srv net.Conn
	// respBytes counts target→client bytes for the kill threshold.
	respBytes atomic.Int64
}

func (p *pair) closeBoth() {
	p.cli.Close()
	if p.srv != nil {
		p.srv.Close()
	}
}

// New starts a proxy on an ephemeral localhost port forwarding to
// target.
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, pairs: make(map[*pair]bool)}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; clients dial this instead of
// the real target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetRefuseNew makes the proxy close new connections immediately on
// accept, simulating a dead listener while existing flows continue.
func (p *Proxy) SetRefuseNew(on bool) {
	p.mu.Lock()
	p.refuse = on
	p.mu.Unlock()
}

// SetDelay inserts d before forwarding each read in either direction.
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// SetBlackhole stops forwarding in both directions while keeping
// connections open, so peers block instead of seeing a reset — the
// scenario context deadlines exist for.
func (p *Proxy) SetBlackhole(on bool) {
	p.mu.Lock()
	p.blackhole = on
	p.mu.Unlock()
}

// KillOnce arms a one-shot kill: the first connection to move more than
// afterResponseBytes from target to client is severed (both directions),
// then the trigger disarms. Later connections — retries, fallback
// fetches — pass untouched, which makes mid-stream death deterministic
// without affecting recovery.
func (p *Proxy) KillOnce(afterResponseBytes int64) {
	p.mu.Lock()
	p.killAfter = afterResponseBytes
	p.mu.Unlock()
}

// KillActive severs every connection currently flowing through the
// proxy.
func (p *Proxy) KillActive() {
	p.mu.Lock()
	pairs := make([]*pair, 0, len(p.pairs))
	for pr := range p.pairs {
		pairs = append(pairs, pr)
	}
	p.mu.Unlock()
	for _, pr := range pairs {
		pr.closeBoth()
		p.killed.Add(1)
	}
}

// Accepted returns the number of connections the proxy accepted.
func (p *Proxy) Accepted() int64 { return p.accepted.Load() }

// Killed returns the number of connections the proxy severed.
func (p *Proxy) Killed() int64 { return p.killed.Load() }

// ActiveConns returns the number of live proxied connections.
func (p *Proxy) ActiveConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pairs)
}

// Close stops the listener and severs all connections.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.ln.Close()
	p.mu.Lock()
	pairs := make([]*pair, 0, len(p.pairs))
	for pr := range p.pairs {
		pairs = append(pairs, pr)
	}
	p.mu.Unlock()
	for _, pr := range pairs {
		pr.closeBoth()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.accepted.Add(1)
		p.mu.Lock()
		refuse := p.refuse
		p.mu.Unlock()
		if refuse {
			conn.Close()
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(conn)
		}()
	}
}

func (p *Proxy) serve(cli net.Conn) {
	d := net.Dialer{Timeout: 5 * time.Second}
	srv, err := d.Dial("tcp", p.target)
	if err != nil {
		cli.Close()
		return
	}
	pr := &pair{cli: cli, srv: srv}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		pr.closeBoth()
		return
	}
	p.pairs[pr] = true
	p.mu.Unlock()

	var once sync.Once
	done := func() {
		once.Do(func() {
			pr.closeBoth()
			p.mu.Lock()
			delete(p.pairs, pr)
			p.mu.Unlock()
		})
	}
	p.wg.Add(2)
	go func() {
		defer p.wg.Done()
		defer done()
		p.pump(pr, cli, srv, false)
	}()
	go func() {
		defer p.wg.Done()
		defer done()
		p.pump(pr, srv, cli, true)
	}()
}

// pump copies src→dst one read at a time, consulting the fault knobs
// between reads. response is true for the target→client direction.
func (p *Proxy) pump(pr *pair, src, dst net.Conn, response bool) {
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.mu.Lock()
			delay := p.delay
			p.mu.Unlock()
			if delay > 0 {
				time.Sleep(delay)
			}
			// Hold the data while black-holed; peers see silence, not a
			// reset. Poll so turning the hole off resumes the flow.
			for p.blackholed() {
				if p.closed.Load() {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			if response {
				total := pr.respBytes.Add(int64(n))
				p.mu.Lock()
				threshold := p.killAfter
				tripped := threshold > 0 && total >= threshold
				if tripped {
					p.killAfter = 0
				}
				p.mu.Unlock()
				if tripped {
					p.killed.Add(1)
					return // done() in the caller severs both sides
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return // done() in the caller severs both sides
		}
	}
}

func (p *Proxy) blackholed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blackhole
}
