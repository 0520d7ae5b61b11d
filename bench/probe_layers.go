package main

import (
	"fmt"
	"math/rand"
	"time"

	"gocast/internal/core"
	"gocast/internal/fec"
	"gocast/internal/latency"
	"gocast/internal/obs"
	"gocast/internal/sim"
	"gocast/internal/store"
	"gocast/internal/wire"
)

func probeSim(p *prober) {
	noop := func() {}
	// Schedule-and-fire with mixed horizons: the heap always holds about a
	// thousand pending events while the loop runs.
	st := p.ns("sim.schedule_fire_ns", 200_000, func(n int) probeBody {
		eng := sim.NewEngine(1)
		return func() (time.Duration, uint64) {
			return timed(func() {
				for i := 0; i < n; i++ {
					eng.After(time.Duration(1+i%997)*time.Microsecond, noop)
					if i%1000 == 999 {
						eng.Run(eng.Now() + 500*time.Microsecond)
					}
				}
				eng.RunAll()
			})
		}
	})
	p.res.setN("sim.allocs_per_event", st.allocsPerOp, probeRepeats)

	const pending = 64 << 10
	p.ns("sim.cancel_ns", pending, func(n int) probeBody {
		eng := sim.NewEngine(1)
		timers := make([]sim.Timer, n)
		for i := range timers {
			timers[i] = eng.After(time.Duration(1+(i*7919)%100_000)*time.Millisecond, noop)
		}
		return timeLoop(n, func(i int) { timers[i].Stop() })
	})

	// Two shard engines with one self-rearming event each per lookahead
	// window: every window is pure dispatch-and-barrier cost.
	st = measure(20_000, func(n int) probeBody {
		control := sim.NewEngine(1)
		shards := []*sim.Engine{sim.NewEngine(2), sim.NewEngine(3)}
		const step = time.Millisecond
		for _, e := range shards {
			e := e
			var tick func()
			tick = func() { e.After(step, tick) }
			e.After(step, tick)
		}
		g := sim.NewShardGroup(control, shards, []time.Duration{step, step}, nil)
		return func() (time.Duration, uint64) {
			return timed(func() { g.Run(control.Now() + time.Duration(n)*step) })
		}
	})
	p.record("sim.shard_window_us", st, 1e-3)

	st = measure(4, func(n int) probeBody {
		return timeLoop(n, func(i int) { latency.Synthesize(fullSim.nodes, int64(i+1)) })
	})
	p.record("latency.synthesize_ms", st, 1e-6)
}

func probeStore(p *prober) {
	const records = 10_000
	payload := make([]byte, 200)
	idOf := func(k int) store.ID { return store.ID{Source: int32(k % 16), Seq: uint32(k / 16)} }
	limits := store.Limits{MaxMessages: 2 * records, MaxBytes: 64 << 20, Retention: time.Second}
	filled := func() *store.Memory {
		m := store.NewMemory(limits)
		for k := 0; k < records; k++ {
			m.Put(idOf(k), payload, 0)
		}
		return m
	}
	p.ns("store.put_ns", records, func(n int) probeBody {
		m := store.NewMemory(limits)
		return timeLoop(n, func(k int) { m.Put(idOf(k), payload, 0) })
	})
	p.ns("store.has_ns", records, func(n int) probeBody {
		m := filled()
		return timeLoop(n, func(k int) { m.Has(idOf(k)) })
	})
	p.ns("store.get_ns", records, func(n int) probeBody {
		m := filled()
		return timeLoop(n, func(k int) { m.Get(idOf(k)) })
	})
	// Stabilise every record, then one sweep past retention reclaims all.
	p.ns("store.gc_ns_per_record", records, func(n int) probeBody {
		m := filled()
		return func() (time.Duration, uint64) {
			return timed(func() {
				for k := 0; k < n; k++ {
					m.MarkStable(idOf(k), 0)
				}
				m.GC(2 * time.Second)
			})
		}
	})
	p.ns("store.digest_ns", 2000, func(n int) probeBody {
		m := filled()
		var scratch []store.SourceRange
		return timeLoop(n, func(int) { scratch = m.DigestAppend(scratch[:0]) })
	})
	symbol := make([]byte, fecSymbolSize)
	meta := store.SymbolMeta{K: 64, N: 66, PayloadLen: 64 << 10}
	p.ns("store.put_symbol_ns", records, func(n int) probeBody {
		m := store.NewMemory(limits)
		return timeLoop(n, func(k int) { m.PutSymbol(idOf(k/64), k%64, symbol, meta, 0) })
	})
}

func probeWire(p *prober) error {
	rng := rand.New(rand.NewSource(3))
	body := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	gossip := &core.Gossip{Degrees: core.Degrees{Rand: 1, Near: 5, MaxNearbyRTT: 40 * time.Millisecond}}
	for i := 0; i < 32; i++ {
		gossip.IDs = append(gossip.IDs, core.GossipID{ID: core.MessageID{Source: core.NodeID(i % 4), Seq: uint32(i)}, Age: time.Duration(i) * time.Millisecond})
	}
	for i := 0; i < 3; i++ {
		gossip.Members = append(gossip.Members, core.Entry{ID: core.NodeID(20 + i), Addr: "127.0.0.1:40000"})
	}
	frames := []struct {
		enc, dec string
		m        core.Message
	}{
		{"wire.encode_multicast64_ns", "wire.decode_multicast64_ns",
			&core.Multicast{ID: core.MessageID{Source: 1, Seq: 9}, Age: time.Millisecond, Payload: body(64), ViaTree: true}},
		{"wire.encode_gossip32_ns", "wire.decode_gossip32_ns", gossip},
		{"wire.encode_symbol1k_ns", "wire.decode_symbol1k_ns",
			&core.Symbol{ID: core.MessageID{Source: 1, Seq: 9}, Index: 3, K: 64, N: 66, PayloadLen: 64 << 10, Data: body(fecSymbolSize), ViaTree: true}},
	}
	for _, f := range frames {
		frame, err := wire.Append(nil, 1, f.m)
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		if _, _, err := wire.Decode(frame[4:]); err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		m := f.m
		// Encoding reuses one buffer, as a transport with pooled frames
		// would; TCPTransport today passes nil and pays the allocation.
		p.ns(f.enc, 50_000, func(n int) probeBody {
			var buf []byte
			return timeLoop(n, func(int) { buf, _ = wire.Append(buf[:0], 1, m) })
		})
		st := p.ns(f.dec, 50_000, func(n int) probeBody {
			return timeLoop(n, func(int) { wire.Decode(frame[4:]) })
		})
		if f.dec == "wire.decode_multicast64_ns" {
			p.res.setN("wire.allocs_per_decode", st.allocsPerOp, probeRepeats)
		}
	}
	return nil
}

func probeFEC(p *prober) error {
	const size = 64 << 10
	params := fec.ParamsFor(size, fecSymbolSize, fecRepair)
	coder, err := fec.NewRS(params)
	if err != nil {
		return fmt.Errorf("fec probe: %w", err)
	}
	payload := make([]byte, size)
	rand.New(rand.NewSource(4)).Read(payload)
	enc := measure(200, func(n int) probeBody {
		return timeLoop(n, func(int) { coder.Encode(payload) })
	})
	p.rate("fec.encode_mib_per_s", size, enc)

	symbols, err := coder.Encode(payload)
	if err != nil {
		return fmt.Errorf("fec probe: %w", err)
	}
	// Two source symbols missing, both repair symbols present.
	work := make([][]byte, len(symbols))
	rec := measure(200, func(n int) probeBody {
		return timeLoop(n, func(int) {
			copy(work, symbols)
			work[5], work[40] = nil, nil
			coder.Reconstruct(work)
		})
	})
	if string(work[5]) != string(symbols[5]) || string(work[40]) != string(symbols[40]) {
		return fmt.Errorf("fec probe: reconstruction returned wrong symbols")
	}
	p.rate("fec.reconstruct_mib_per_s", size, rec)
	p.res.setN("fec.allocs_per_reconstruct", rec.allocsPerOp, probeRepeats)
	return nil
}

func probeObs(p *prober) {
	p.ns("obs.counter_inc_ns", 2_000_000, func(n int) probeBody {
		c := obs.NewRegistry().Counter("bench_probe_total", "probe")
		return timeLoop(n, func(int) { c.Inc() })
	})
	p.ns("obs.histogram_observe_ns", 1_000_000, func(n int) probeBody {
		h := obs.NewRegistry().Histogram("bench_probe_seconds", "probe", nil)
		return timeLoop(n, func(i int) { h.Observe(float64(i%1000) * 1e-5) })
	})
}
