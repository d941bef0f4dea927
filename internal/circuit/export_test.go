package circuit

// UseNaturalOrder pins c's JPerm to nil, so every factorization of c runs in
// natural column order (lu.Options{ColPerm: nil}): an ordering independent
// of AMD for cross-ordering accuracy tests. It must run before the first
// JPerm call.
func UseNaturalOrder(c *Circuit) { c.jPermOnce.Do(func() {}) }
