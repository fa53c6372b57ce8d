package stats

// Counters is an ordered set of named event counters: the fault
// injector counts each kind of fault it injects in one. The names keep
// first-touch order so that a checkpoint of the set is deterministic.
type Counters struct {
	names  []string
	values map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{values: make(map[string]uint64)}
}

// Add increments a named counter by n, creating it at first touch.
func (c *Counters) Add(name string, n uint64) {
	if _, ok := c.values[name]; !ok {
		c.names = append(c.names, name)
	}
	c.values[name] += n
}

// Inc increments a named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns a counter's value (0 if never touched).
func (c *Counters) Get(name string) uint64 { return c.values[name] }

// Total sums every counter.
func (c *Counters) Total() uint64 {
	var t uint64
	for _, v := range c.values {
		t += v
	}
	return t
}
