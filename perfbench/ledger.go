package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// ledger is a traced run's per-layer account of where end-to-end time
// went: each layer's self time and share, the residual at each boundary
// between a span and the spans inside it, the model's price beside each
// measured op kind, and the tracing overhead.
type ledger struct {
	scope      string  // which requests or circuits the ledger covers
	endToEndMs float64 // total end-to-end time the shares are taken of
	units      int     // requests or circuits in endToEndMs
	rows       map[string]*ledgerRow
	boundaries []boundary
	calib      []calibRow
	overhead   string
}

type ledgerRow struct {
	count  int64
	selfMs float64
}

// boundary is one layer boundary: the outer span's total time and the
// part its inner spans account for.
type boundary struct {
	outer, inner     string
	outerMs, innerMs float64
}

type calibRow struct {
	kind                string
	count               uint64
	measuredMs, modelMs float64
	ratio               float64
}

func newLedger(scope string) *ledger { return &ledger{scope: scope, rows: map[string]*ledgerRow{}} }

func (l *ledger) add(layer string, self time.Duration) {
	r := l.rows[layer]
	if r == nil {
		r = &ledgerRow{}
		l.rows[layer] = r
	}
	r.count++
	r.selfMs += ms(self)
}

// largest names the layer with the largest self time.
func (l *ledger) largest() string {
	best, bestMs := "", -1.0
	for name, r := range l.rows {
		if r.selfMs > bestMs || (r.selfMs == bestMs && name < best) {
			best, bestMs = name, r.selfMs
		}
	}
	return best
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger over %s: %d units, %.1f ms end to end\n", l.scope, l.units, l.endToEndMs)
	names := make([]string, 0, len(l.rows))
	for n := range l.rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return l.rows[names[i]].selfMs > l.rows[names[j]].selfMs })
	fmt.Fprintf(w, "  %-28s %10s %12s %12s %8s\n", "layer", "spans", "self ms", "ms/unit", "share")
	for _, n := range names {
		r := l.rows[n]
		fmt.Fprintf(w, "  %-28s %10d %12.2f %12.4f %7.2f%%\n", n, r.count, r.selfMs,
			r.selfMs/float64(max(l.units, 1)), 100*r.selfMs/l.endToEndMs)
	}
	fmt.Fprintf(w, "  largest self time: %s\n", l.largest())
	fmt.Fprintln(w, "boundaries (residual = outer − inner):")
	for _, b := range l.boundaries {
		fmt.Fprintf(w, "  %-22s ⊃ %-26s %12.2f − %12.2f = %10.2f ms (%.2f%%)\n", b.outer, b.inner,
			b.outerMs, b.innerMs, b.outerMs-b.innerMs, 100*(b.outerMs-b.innerMs)/b.outerMs)
	}
	fmt.Fprintln(w, "op kinds, measured vs modelled (telemetry.Calibrate on U280 / PaperParams):")
	fmt.Fprintf(w, "  %-12s %10s %14s %14s %12s\n", "kind", "count", "measured ms", "modelled ms", "ratio")
	for _, c := range l.calib {
		fmt.Fprintf(w, "  %-12s %10d %14.3f %14.6f %12.1f\n", c.kind, c.count, c.measuredMs, c.modelMs, c.ratio)
	}
	fmt.Fprintf(w, "tracing overhead: %s\n", l.overhead)
}

// interval is one timed span in unix nanoseconds.
type interval struct {
	name       string
	start, end int64
}

// nestTolerance absorbs the clock reads between an op's own timing and
// the moment its span is reported: an inner span may appear to start or
// end this much outside the span that contains it.
const nestTolerance = 2000 // ns

// selfTimes nests intervals by containment and reports, for each, its
// duration minus the intervals directly inside it. It returns the total
// duration of the outermost intervals: the time the set covers.
func selfTimes(ivs []interval, report func(name string, self time.Duration)) time.Duration {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].end > ivs[j].end
	})
	type open struct {
		iv    interval
		inner int64
	}
	var stack []*open
	var covered int64
	flush := func(o *open) { report(o.iv.name, time.Duration(o.iv.end-o.iv.start-o.inner)) }
	for _, iv := range ivs {
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if iv.start >= top.iv.start-nestTolerance && iv.end <= top.iv.end+nestTolerance {
				break
			}
			flush(top)
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			stack[len(stack)-1].inner += iv.end - iv.start
		} else {
			covered += iv.end - iv.start
		}
		stack = append(stack, &open{iv: iv})
	}
	for i := len(stack) - 1; i >= 0; i-- {
		flush(stack[i])
	}
	return time.Duration(covered)
}

// opLog is a span observer the benchmark installs on an evaluator it owns
// (the bootstrapper's): it keeps every op span as an interval, so the
// ledger can nest them.
type opLog struct {
	mu  sync.Mutex
	ivs []interval
}

func (o *opLog) Observe(string, int) {}

func (o *opLog) ObserveSpan(op string, _ int, dur time.Duration, err error) {
	if err != nil {
		return
	}
	end := time.Now().UnixNano()
	o.mu.Lock()
	o.ivs = append(o.ivs, interval{name: op, start: end - int64(dur), end: end})
	o.mu.Unlock()
}

// take returns the spans logged so far and starts a new log.
func (o *opLog) take() []interval {
	o.mu.Lock()
	defer o.mu.Unlock()
	ivs := o.ivs
	o.ivs = nil
	return ivs
}
