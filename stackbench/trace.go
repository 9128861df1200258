package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// span is one call the benchmark made into a layer. Virtual times are
// offsets on the repetition's simulated clock; wall times are host
// nanoseconds since the recorder started. For a call that returns a
// future, WEnd is when the call returned and VEnd/WDone are stamped when
// the future completes (by a Subscribe callback, not a goroutine).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Bytes  int64  `json:"bytes"`
	VStart int64  `json:"v_start_ns"`
	VEnd   int64  `json:"v_end_ns"`
	WStart int64  `json:"w_start_ns"`
	WEnd   int64  `json:"w_end_ns"`
	WDone  int64  `json:"w_done_ns"`
	Err    bool   `json:"err,omitempty"`

	g    uint64 // goroutine the span was opened on
	prev *span  // the goroutine's enclosing open span, restored at end
}

// recorder keeps every span of a traced repetition in memory. A nil
// recorder records nothing, so the untraced run pays one nil check per
// call site. Spans are only taken while the recorder is on (the measured
// phase and the crash-restart mounts), never during preload.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	on     bool
	spans  []*span
	nextID uint64
	active map[uint64]*span // goroutine id -> innermost open span

	winStart, winEnd int64 // wall window of the measured phase

	sinks []*rootSink // raizn tracer roots, one sink per array
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), active: make(map[uint64]*span)}
}

func (r *recorder) wall() int64 { return int64(time.Since(r.t0)) }

// setOn switches span recording on or off.
func (r *recorder) setOn(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// markWindow records the wall bounds of the measured phase.
func (r *recorder) markWindow(start bool) {
	if r == nil {
		return
	}
	w := r.wall()
	r.mu.Lock()
	if start {
		r.winStart = w
	} else {
		r.winEnd = w
	}
	r.mu.Unlock()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). Only the traced run pays for it.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// begin opens a span named name on the calling goroutine. Its parent is
// the goroutine's innermost open span; a span with no parent starts a new
// request id.
func (r *recorder) begin(clk *vclock.Clock, name string, bytes int64) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	on := r.on
	r.mu.Unlock()
	if !on {
		return nil
	}
	g := goid()
	v := int64(clk.Now())
	w := r.wall()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s := &span{Name: name, ID: r.nextID, Bytes: bytes, VStart: v, WStart: w, WDone: -1, g: g}
	if p := r.active[g]; p != nil {
		s.Parent, s.Req, s.prev = p.ID, p.Req, p
	} else {
		s.Req = s.ID
	}
	r.active[g] = s
	r.spans = append(r.spans, s)
	return s
}

// end closes a synchronous span: the call has returned and, for the
// layers above raizn, its work is complete.
func (r *recorder) end(clk *vclock.Clock, s *span, err error) {
	if s == nil {
		return
	}
	v := int64(clk.Now())
	w := r.wall()
	r.mu.Lock()
	s.VEnd, s.WEnd, s.WDone, s.Err = v, w, w, err != nil
	r.popLocked(s)
	r.mu.Unlock()
}

// endAsync closes the call part of a span whose work completes with fut,
// and stamps the virtual and wall completion when fut resolves.
func (r *recorder) endAsync(clk *vclock.Clock, s *span, fut *vclock.Future) {
	if s == nil {
		return
	}
	w := r.wall()
	r.mu.Lock()
	s.WEnd = w
	r.popLocked(s)
	r.mu.Unlock()
	fut.Subscribe(func(err error) {
		v := int64(clk.Now())
		w := r.wall()
		r.mu.Lock()
		s.VEnd, s.WDone, s.Err = v, w, err != nil
		r.mu.Unlock()
	})
}

// popLocked restores the goroutine's enclosing span. Spans close in LIFO
// order on a goroutine, so the closing span is the innermost one.
func (r *recorder) popLocked(s *span) {
	if s.prev != nil {
		r.active[s.g] = s.prev
	} else {
		delete(r.active, s.g)
	}
}

// snapshot returns the spans and the measured window, after the
// repetition has finished.
func (r *recorder) snapshot() ([]*span, int64, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*span(nil), r.spans...), r.winStart, r.winEnd
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	spans, _, _ := r.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// interval is a half-open wall-clock range [lo, hi).
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := interval{lo: -1, hi: -1}
	flush := func() {
		a, b := max(cur.lo, lo), min(cur.hi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if cur.hi < 0 || iv.lo > cur.hi {
			if cur.hi >= 0 {
				flush()
			}
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	if cur.hi >= 0 {
		flush()
	}
	return total
}

// spanIndex holds a repetition's spans with their children.
type spanIndex struct {
	spans    []*span
	children map[uint64][]*span
	winStart int64
	winEnd   int64
}

func indexSpans(r *recorder) *spanIndex {
	spans, a, b := r.snapshot()
	ix := &spanIndex{spans: spans, children: make(map[uint64][]*span), winStart: a, winEnd: b}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// cover is the wall interval a child span takes out of its parent: from
// the call until the child's work completed, but never past the parent's
// own end (a write the parent did not wait for stops covering it when the
// parent returns).
func cover(c, parent *span) interval {
	hi := max(c.WEnd, c.WDone)
	return interval{c.WStart, min(hi, parent.WEnd)}
}

// selfWall is the span's wall duration minus the part its children cover.
func (ix *spanIndex) selfWall(s *span) int64 {
	var ivs []interval
	for _, c := range ix.children[s.ID] {
		ivs = append(ivs, cover(c, s))
	}
	return (s.WEnd - s.WStart) - unionLen(ivs, s.WStart, s.WEnd)
}

// selfMedianUS returns the median self wall time, in µs, of the spans
// whose name is one of names.
func (ix *spanIndex) selfMedianUS(names ...string) float64 {
	var xs []float64
	for _, s := range ix.spans {
		for _, n := range names {
			if s.Name == n {
				xs = append(xs, float64(ix.selfWall(s))/1e3)
			}
		}
	}
	return median(xs)
}

// unattributedFrac is the share of the measured phase's wall window in
// which no span was doing its own work: the vclock scheduler, the zns
// model's completions and background goroutines the benchmark did not
// call. A span's own work is its call interval minus the time its
// children spent waiting for completion.
func (ix *spanIndex) unattributedFrac() float64 {
	win := ix.winEnd - ix.winStart
	if win <= 0 {
		return 0
	}
	var own []interval
	for _, s := range ix.spans {
		var waits []interval
		for _, c := range ix.children[s.ID] {
			cv := cover(c, s)
			if cv.hi > c.WEnd {
				waits = append(waits, interval{c.WEnd, cv.hi})
			}
		}
		own = append(own, subtract(interval{s.WStart, s.WEnd}, waits)...)
	}
	return 1 - float64(unionLen(own, ix.winStart, ix.winEnd))/float64(win)
}

// subtract returns iv minus the union of cut.
func subtract(iv interval, cut []interval) []interval {
	sort.Slice(cut, func(i, j int) bool { return cut[i].lo < cut[j].lo })
	var out []interval
	lo := iv.lo
	for _, c := range cut {
		if c.hi <= lo || c.lo >= iv.hi {
			continue
		}
		if c.lo > lo {
			out = append(out, interval{lo, c.lo})
		}
		lo = max(lo, c.hi)
	}
	if lo < iv.hi {
		out = append(out, interval{lo, iv.hi})
	}
	return out
}

// rootSink collects every finished raizn root span of a traced
// repetition (obs.Tracer keeps only a bounded ring itself).
type rootSink struct {
	mu    sync.Mutex
	roots []*obs.Span
}

// ObserveSpan implements obs.SpanObserver.
func (k *rootSink) ObserveSpan(s *obs.Span) {
	k.mu.Lock()
	k.roots = append(k.roots, s)
	k.mu.Unlock()
}

// roots returns each array's raizn root spans, in tracerFor order.
func (r *recorder) roots() [][]*obs.Span {
	r.mu.Lock()
	sinks := r.sinks
	r.mu.Unlock()
	out := make([][]*obs.Span, len(sinks))
	for i, k := range sinks {
		k.mu.Lock()
		out[i] = k.roots
		k.mu.Unlock()
	}
	return out
}

// tracerFor returns a raizn tracer for one array of a traced repetition,
// or nil when untraced. The tracer starts disabled; the workload enables
// it for the measured phase.
func (r *recorder) tracerFor(clk *vclock.Clock) *obs.Tracer {
	if r == nil {
		return nil
	}
	k := &rootSink{}
	r.mu.Lock()
	r.sinks = append(r.sinks, k)
	r.mu.Unlock()
	t := obs.NewTracer(clk, obs.Config{})
	t.SetObserver(k)
	return t
}
