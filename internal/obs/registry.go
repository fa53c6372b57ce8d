package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Gauge samples one named value from live simulator state. Gauges are
// read-only probes: sampling must not mutate anything.
type Gauge func() float64

// Registry is a named collection of gauges — the pull-style complement
// to the event stream. Subsystems register samplers over their own
// counters at wiring time; callers scrape the set on demand with
// Sample or WriteProm. Registration order is irrelevant: all renders
// are sorted by metric name.
type Registry struct {
	gauges map[string]Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{gauges: make(map[string]Gauge)} }

// Register installs (or replaces) a gauge under name. Nil-safe and
// nil-gauge-safe so wiring code can register unconditionally.
func (r *Registry) Register(name string, g Gauge) {
	if r == nil || g == nil {
		return
	}
	r.gauges[name] = g
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sample evaluates one gauge. ok is false for unknown names.
func (r *Registry) Sample(name string) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	g, ok := r.gauges[name]
	if !ok {
		return 0, false
	}
	return g(), true
}

// WriteProm renders every gauge as a Prometheus-style "name value"
// line, sorted by name for deterministic output.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, n := range r.Names() {
		if _, err := fmt.Fprintf(w, "%s %s\n", n, formatValue(r.gauges[n]())); err != nil {
			return err
		}
	}
	return nil
}

// formatValue renders a metric value the way Prometheus text format
// does: integers without a decimal point, everything else via %g.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
