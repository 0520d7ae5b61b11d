package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// Layer probes: each is a fixed-iteration loop around a layer's exported
// calls, run once to warm up and then probeRepeats times on fresh state.
// The reported value is the median of the repeats; quartiles and allocations
// per operation are printed beside it.

const probeRepeats = 5

// probeBody performs the n operations its constructor prepared and returns
// the time and the heap allocations of the timed part only; whatever it
// builds or does between timed sections is free.
type probeBody func() (time.Duration, uint64)

// timed measures one timed section.
func timed(fn func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

// timeLoop is the common probeBody: n calls of op in one timed section.
func timeLoop(n int, op func(i int)) probeBody {
	return func() (time.Duration, uint64) {
		return timed(func() {
			for i := 0; i < n; i++ {
				op(i)
			}
		})
	}
}

type probeStat struct {
	nsPerOp, q1, q3 float64
	allocsPerOp     float64
}

// measure builds fresh state for a warm-up pass and for each repeat, so no
// repeat inherits the previous one's grown maps and stores.
func measure(n int, fresh func(n int) probeBody) probeStat {
	warm := n/10 + 1
	fresh(warm)()
	ns := make([]float64, probeRepeats)
	allocs := make([]float64, probeRepeats)
	for r := range ns {
		d, mallocs := fresh(n)()
		ns[r] = float64(d) / float64(n)
		allocs[r] = float64(mallocs) / float64(n)
	}
	q1, med, q3 := quartiles(ns)
	return probeStat{nsPerOp: med, q1: q1, q3: q3, allocsPerOp: median(allocs)}
}

// prober collects probe results into a result and prints each as it lands.
type prober struct {
	res *result
	out io.Writer
}

// record stores st under name, scaled from ns/op by scale (1 for ns, 1e-3
// for us, 1e-6 for ms).
func (p *prober) record(name string, st probeStat, scale float64) {
	p.res.setN(name, st.nsPerOp*scale, probeRepeats)
	fmt.Fprintf(p.out, "  %-30s %12.4g %-6s [q1 %.4g, q3 %.4g]  %.2f allocs/op\n",
		name, st.nsPerOp*scale, unitOf(name), st.q1*scale, st.q3*scale, st.allocsPerOp)
}

func (p *prober) ns(name string, n int, fresh func(n int) probeBody) probeStat {
	st := measure(n, fresh)
	p.record(name, st, 1)
	return st
}

// rate stores bytesPerOp/time as MiB/s (quartiles swap: a longer op is a
// lower rate).
func (p *prober) rate(name string, bytesPerOp int, st probeStat) {
	mib := func(ns float64) float64 { return float64(bytesPerOp) / (1 << 20) / (ns / 1e9) }
	p.res.setN(name, mib(st.nsPerOp), probeRepeats)
	fmt.Fprintf(p.out, "  %-30s %12.4g %-6s [q1 %.4g, q3 %.4g]  %.2f allocs/op\n",
		name, mib(st.nsPerOp), unitOf(name), mib(st.q3), mib(st.q1), st.allocsPerOp)
}

// values stores the median of per-repeat values that a probe computed
// itself (a rate, a percentile), with their quartiles.
func (p *prober) values(name string, vals []float64) {
	q1, med, q3 := quartiles(vals)
	p.res.setN(name, med, len(vals))
	fmt.Fprintf(p.out, "  %-30s %12.4g %-6s [q1 %.4g, q3 %.4g]\n", name, med, unitOf(name), q1, q3)
}

// runProbes measures every P-sourced layer metric.
func runProbes(res *result, out io.Writer) error {
	p := &prober{res: res, out: out}
	fmt.Fprintf(out, " layer probes (median of %d repeats after a warm-up pass):\n", probeRepeats)
	probeSim(p)
	if err := probeCore(p); err != nil {
		return err
	}
	probeStore(p)
	if err := probeWire(p); err != nil {
		return err
	}
	if err := probeFEC(p); err != nil {
		return err
	}
	probeObs(p)
	return probeLive(p)
}
