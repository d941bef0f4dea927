package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"masc/internal/compress"
	"masc/internal/jactensor"
)

// spanRec is one completed span of the traced run: a call from the
// benchmark's own code into a layer. Call is the traced iteration it
// belongs to, shared by every span of that iteration.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Call   int    `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; write dumps them at the
// end. IDs start at 1; parent 0 means a root span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
	call  int
	// scope is the parent of codec spans: the store span in progress.
	scope int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span that ran over [start, end] and returns its ID.
func (t *tracer) add(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Call: t.call, Name: name, Start: start, End: end})
	return id
}

// open starts a span whose end is set by close; it returns the span's ID.
func (t *tracer) open(name string, parent int) int { return t.add(name, parent, t.now(), -1) }

// close ends span id and returns its duration in seconds.
func (t *tracer) close(id int) float64 {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	return float64(s.End-s.Start) / 1e9
}

// end sets span id's end to at (tracer nanoseconds).
func (t *tracer) end(id int, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at
}

// time runs f inside a span and returns f's duration in seconds.
func (t *tracer) time(name string, parent int, f func()) float64 {
	id := t.open(name, parent)
	f()
	return t.close(id)
}

// totals sums span durations (seconds) and counts spans by name over the
// spans recorded since index from.
func (t *tracer) totals(from int) (sec map[string]float64, n map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sec, n = map[string]float64{}, map[string]int{}
	for _, s := range t.spans[from:] {
		sec[s.Name] += float64(s.End-s.Start) / 1e9
		n[s.Name]++
	}
	return sec, n
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedCodec is a timing wrapper on compress.Compressor: every Compress and
// Decompress becomes a span under the store span in progress, and its time
// and plaintext and encoded bytes are summed.
type timedCodec struct {
	compress.Compressor
	tr                         *tracer
	compressSec, decompressSec float64
	plainIn, encodedOut        int64 // Compress
	plainOut                   int64 // Decompress
}

func (c *timedCodec) Compress(dst []byte, cur, ref []float64) []byte {
	start := c.tr.now()
	out := c.Compressor.Compress(dst, cur, ref)
	end := c.tr.now()
	c.tr.add("masczip.compress", c.tr.scope, start, end)
	c.compressSec += float64(end-start) / 1e9
	c.plainIn += int64(8 * len(cur))
	c.encodedOut += int64(len(out) - len(dst))
	return out
}

func (c *timedCodec) Decompress(cur []float64, blob []byte, ref []float64) error {
	start := c.tr.now()
	err := c.Compressor.Decompress(cur, blob, ref)
	end := c.tr.now()
	c.tr.add("masczip.decompress", c.tr.scope, start, end)
	c.decompressSec += float64(end-start) / 1e9
	c.plainOut += int64(8 * len(cur))
	return err
}

// timedStore is a timing wrapper on the compressed jactensor.Store: Put,
// EndForward and Fetch become spans, and codec spans nest under them.
type timedStore struct {
	*jactensor.CompressedStore
	tr     *tracer
	parent int // span the next Put/EndForward/Fetch nests under
}

func (s *timedStore) scoped(name string, f func() error) error {
	id := s.tr.open(name, s.parent)
	s.tr.scope = id
	err := f()
	s.tr.scope = 0
	s.tr.close(id)
	return err
}

func (s *timedStore) Put(step int, jv, cv []float64) error {
	return s.scoped("jactensor.put", func() error { return s.CompressedStore.Put(step, jv, cv) })
}

func (s *timedStore) EndForward() error {
	return s.scoped("jactensor.endforward", s.CompressedStore.EndForward)
}

func (s *timedStore) Fetch(step int) (jv, cv []float64, err error) {
	err = s.scoped("jactensor.fetch", func() error {
		var ferr error
		jv, cv, ferr = s.CompressedStore.Fetch(step)
		return ferr
	})
	return jv, cv, err
}
