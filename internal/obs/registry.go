// Package obs is the observability substrate: a typed metrics registry
// (counters, gauges, bounded-error log-bucketed histograms) and a
// lightweight per-query span tree carried through context.Context. It is
// dependency-free by design — every other package may import it, it
// imports only the standard library — and every operation is safe for
// concurrent use.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are the caller's bug; they are applied
// as-is).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 metric.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind orders families in the rendered exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered family member: a name, its optional label
// pairs, and exactly one of the typed cells.
type metric struct {
	name   string // family name, e.g. "sieve_query_duration_ns"
	labels string // rendered label set, e.g. `phase="rewrite"`, or ""
	kind   metricKind
	help   string

	counter *Counter
	gauge   *Gauge
	fn      func() int64
	hist    *Histogram
}

// Registry holds named metrics. Lookups get-or-create, so call sites can
// use Registry.Counter(name) as the handle without registration
// ceremony; the first caller's kind wins and a later lookup under a
// different kind panics (a programming error, like re-registering in
// expvar).
type Registry struct {
	mu      sync.RWMutex
	byKey   map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*metric{}}
}

// key builds the lookup key and rendered label string from name and
// alternating label key/value pairs.
func metricKey(name string, labels []string) (key, rendered string) {
	if len(labels) == 0 {
		return name, ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q has odd label list %v", name, labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	rendered = b.String()
	return name + "{" + rendered + "}", rendered
}

// lookup get-or-creates the metric under key, verifying the kind.
func (r *Registry) lookup(name string, labels []string, kind metricKind, mk func(*metric)) *metric {
	key, rendered := metricKey(name, labels)
	r.mu.RLock()
	m := r.byKey[key]
	r.mu.RUnlock()
	if m == nil {
		r.mu.Lock()
		if m = r.byKey[key]; m == nil {
			m = &metric{name: name, labels: rendered, kind: kind}
			mk(m)
			r.byKey[key] = m
			r.ordered = append(r.ordered, m)
		}
		r.mu.Unlock()
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", key))
	}
	return m
}

// Counter returns the named counter, creating it on first use. Optional
// labels are alternating key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, labels, kindCounter, func(m *metric) { m.counter = &Counter{} }).counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, labels, kindGauge, func(m *metric) { m.gauge = &Gauge{} }).gauge
}

// GaugeFunc registers a callback sampled at render time — the bridge for
// values that already live elsewhere (engine accumulators, cache stats,
// WAL counters, runtime stats). Re-registering the same name replaces
// the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...string) {
	m := r.lookup(name, labels, kindGaugeFunc, func(m *metric) {})
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.lookup(name, labels, kindHistogram, func(m *metric) { m.hist = newHistogram() }).hist
}

// snapshotMetrics copies the ordered family list under the read lock.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.RLock()
	out := make([]*metric, len(r.ordered))
	copy(out, r.ordered)
	r.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}
