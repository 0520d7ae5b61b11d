package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gocast/internal/core"
	"gocast/internal/live"
)

// tcpPair is the two-endpoint loopback harness: real TCPTransports a and b,
// one sender goroutine driving a -> b (and b's handler answering when
// asked to echo).
type tcpPair struct {
	a, b     *live.TCPTransport
	received atomic.Int64 // frames b's handler has seen
	echo     atomic.Bool  // b answers every frame with pong
	pong     chan struct{}
}

func newTCPPair() (*tcpPair, error) {
	opts := live.TCPOptions{Logf: discardLog}
	a, err := live.NewTCPTransportWithOptions(1, "127.0.0.1:0", opts)
	if err != nil {
		return nil, err
	}
	b, err := live.NewTCPTransportWithOptions(2, "127.0.0.1:0", opts)
	if err != nil {
		a.Close()
		return nil, err
	}
	p := &tcpPair{a: a, b: b, pong: make(chan struct{}, 1)}
	reply := &core.TreeParent{On: true}
	b.SetHandlers(func(core.NodeID, core.Message) {
		p.received.Add(1)
		if p.echo.Load() {
			b.Send(a.Addr(), 1, reply)
		}
	}, func(core.NodeID) {})
	a.SetHandlers(func(core.NodeID, core.Message) { p.pong <- struct{}{} }, func(core.NodeID) {})
	return p, nil
}

func (p *tcpPair) close() {
	p.a.Close()
	p.b.Close()
}

// stream sends n copies of m from a to b and returns the time until b's
// handler has seen them all. At most window frames are in flight, well
// under the Critical ring's soft cap, so nothing is ever shed.
func (p *tcpPair) stream(m core.Message, n int) (time.Duration, error) {
	const window = 128
	base := p.received.Load()
	deadline := time.Now().Add(30 * time.Second)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for int64(i)-(p.received.Load()-base) >= window {
			runtime.Gosched()
			if i%1024 == 0 && time.Now().After(deadline) {
				return 0, fmt.Errorf("loopback stream stalled at frame %d of %d", i, n)
			}
		}
		p.a.Send(p.b.Addr(), 2, m)
	}
	for p.received.Load()-base < int64(n) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("loopback stream lost frames: %d of %d arrived", p.received.Load()-base, n)
		}
		runtime.Gosched()
	}
	return time.Since(t0), nil
}

// pingPong measures n request/response round trips, one at a time.
func (p *tcpPair) pingPong(m core.Message, n int) ([]float64, error) {
	p.echo.Store(true)
	defer p.echo.Store(false)
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		p.a.Send(p.b.Addr(), 2, m)
		select {
		case <-p.pong:
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("loopback round trip %d timed out", i)
		}
		rtts = append(rtts, usOf(time.Since(t0)))
	}
	return rtts, nil
}

func probeLive(p *prober) error {
	pair, err := newTCPPair()
	if err != nil {
		return fmt.Errorf("live probe: %w", err)
	}
	defer pair.close()
	small := &core.Multicast{ID: core.MessageID{Source: 1, Seq: 1}, Payload: make([]byte, 64), ViaTree: true}
	symbol := &core.Symbol{ID: core.MessageID{Source: 1, Seq: 1}, Index: 3, K: 64, N: 66, PayloadLen: 64 << 10, Data: make([]byte, fecSymbolSize), ViaTree: true}

	repeat := func(name string, n int, m core.Message, value func(d time.Duration) float64) error {
		if _, err := pair.stream(m, n/10); err != nil { // warm-up: dial, grow rings
			return fmt.Errorf("live probe: %w", err)
		}
		vals := make([]float64, probeRepeats)
		for r := range vals {
			d, err := pair.stream(m, n)
			if err != nil {
				return fmt.Errorf("live probe: %w", err)
			}
			vals[r] = value(d)
		}
		p.values(name, vals)
		return nil
	}
	const frames = 50_000
	if err := repeat("live.tcp_frames_per_s", frames, small, func(d time.Duration) float64 {
		return frames / d.Seconds()
	}); err != nil {
		return err
	}
	if err := repeat("live.tcp_mib_per_s", frames, symbol, func(d time.Duration) float64 {
		return frames * fecSymbolSize / float64(1<<20) / d.Seconds()
	}); err != nil {
		return err
	}

	if _, err := pair.pingPong(small, 200); err != nil {
		return fmt.Errorf("live probe: %w", err)
	}
	p50s := make([]float64, probeRepeats)
	for r := range p50s {
		rtts, err := pair.pingPong(small, 2000)
		if err != nil {
			return fmt.Errorf("live probe: %w", err)
		}
		p50s[r] = percentile(sortedCopy(rtts), 0.5)
	}
	p.values("live.tcp_rtt_p50_us", p50s)
	return nil
}
