package store

import "time"

// Counting wraps any MessageStore and counts every call, merging the call
// counts into the inner store's counters under a "calls_" prefix. It is
// the swap-in instrumentation double used by tests to verify that the
// dissemination path really goes through the store interface, and a
// template for other decorators (tracing, latency injection). Like the
// stores it wraps, it is not goroutine safe.
type Counting struct {
	Inner MessageStore
	calls map[string]int64
}

var _ MessageStore = (*Counting)(nil)

// NewCounting wraps inner with call counting.
func NewCounting(inner MessageStore) *Counting {
	return &Counting{Inner: inner, calls: make(map[string]int64)}
}

// Calls returns how many times the named method was invoked.
func (c *Counting) Calls(method string) int64 { return c.calls[method] }

func (c *Counting) Put(id ID, payload []byte, now time.Duration) bool {
	c.calls["Put"]++
	return c.Inner.Put(id, payload, now)
}

func (c *Counting) Get(id ID) ([]byte, bool) {
	c.calls["Get"]++
	return c.Inner.Get(id)
}

func (c *Counting) Has(id ID) bool {
	c.calls["Has"]++
	return c.Inner.Has(id)
}

func (c *Counting) MarkStable(id ID, now time.Duration) {
	c.calls["MarkStable"]++
	c.Inner.MarkStable(id, now)
}

func (c *Counting) Unstable(id ID) {
	c.calls["Unstable"]++
	c.Inner.Unstable(id)
}

func (c *Counting) Digest() []SourceRange {
	c.calls["Digest"]++
	return c.Inner.Digest()
}

func (c *Counting) Range(source int32, low, high uint32, visit func(id ID, payload []byte) bool) {
	c.calls["Range"]++
	c.Inner.Range(source, low, high, visit)
}

func (c *Counting) PutSymbol(id ID, idx int, data []byte, meta SymbolMeta, now time.Duration) bool {
	c.calls["PutSymbol"]++
	return c.Inner.PutSymbol(id, idx, data, meta, now)
}

func (c *Counting) GetSymbol(id ID, idx int) ([]byte, bool) {
	c.calls["GetSymbol"]++
	return c.Inner.GetSymbol(id, idx)
}

func (c *Counting) SymbolInfo(id ID) (SymbolMeta, SymbolSet, bool) {
	c.calls["SymbolInfo"]++
	return c.Inner.SymbolInfo(id)
}

func (c *Counting) RangeSymbols(id ID, visit func(idx int, data []byte) bool) {
	c.calls["RangeSymbols"]++
	c.Inner.RangeSymbols(id, visit)
}

func (c *Counting) GC(now time.Duration) GCResult {
	c.calls["GC"]++
	return c.Inner.GC(now)
}

func (c *Counting) Len() int     { return c.Inner.Len() }
func (c *Counting) Bytes() int64 { return c.Inner.Bytes() }

// Counters merges the inner store's counters with the call counts.
func (c *Counting) Counters() map[string]int64 {
	out := c.Inner.Counters()
	for name, v := range c.calls {
		out["calls_"+name] = v
	}
	return out
}
