// Package bench regenerates every table and figure of the MASC paper's
// evaluation (Section 6) plus the Table 1 / Figure 1 motivation data, on
// the laptop-scale workload analogues. Each experiment returns typed rows
// and has a text renderer used by cmd/masc-bench and EXPERIMENTS.md.
package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"masc/internal/compress"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/workload"
)

// Tensor is an in-memory Jacobian tensor captured from a simulation (or
// loaded from a tensor file): the raw material of the compression
// experiments.
type Tensor struct {
	Name       string
	JPat, CPat *sparse.Pattern
	JS         [][]float64 // J values per step
	CS         [][]float64 // C values per step
	Steps      int
}

// RawBytes is the value payload size (the paper's S_NZ).
func (t *Tensor) RawBytes() int64 {
	if t.Steps == 0 {
		return 0
	}
	return int64(8*(len(t.JS[0])+len(t.CS[0]))) * int64(t.Steps)
}

// CaptureTensor simulates the dataset and keeps every step's J and C
// values in memory.
func CaptureTensor(ds *workload.Dataset) (*Tensor, error) {
	st := jactensor.NewMemStore()
	if _, err := ds.RunForward(st); err != nil {
		return nil, err
	}
	tn := &Tensor{Name: ds.Name, JPat: ds.Ckt.JPat, CPat: ds.Ckt.CPat}
	for i := 0; ; i++ {
		j, c, err := st.Fetch(i)
		if err != nil {
			break
		}
		tn.JS = append(tn.JS, append([]float64(nil), j...))
		tn.CS = append(tn.CS, append([]float64(nil), c...))
	}
	tn.Steps = len(tn.JS)
	if tn.Steps == 0 {
		return nil, fmt.Errorf("bench: %s captured no steps", ds.Name)
	}
	return tn, nil
}

// CodecResult measures one codec over one tensor.
type CodecResult struct {
	Codec            string
	CompressedBytes  int64
	CR               float64
	CompressTime     time.Duration
	DecompressTime   time.Duration
	CompressMBps     float64
	DecompressMBps   float64
	RoundTripChecked bool
}

// codecPair supplies (possibly stateful) codecs for the J and C tensors.
type codecPair struct {
	name string
	j, c compress.Compressor
}

// MeasureCodec times each direction as the fastest of at least
// minTimedPasses passes that together take at least minTimedWork. One pass
// over a scale-0.1 tensor is 1–3 ms of work, short enough that a single GC
// cycle or preemption halves its rate; slow codecs (gzip, ~80 ms a pass)
// still get more than one try.
const (
	minTimedWork   = 20 * time.Millisecond
	minTimedPasses = 3
)

// MeasureCodec runs the Algorithm-2 chain over the tensor: step i is
// compressed with step i+1 as reference (the last step with none), then
// decompressed in reverse and verified (bit-exact for lossless codecs,
// skipped for lossy ones). Each time is the best of repeated passes (see
// minTimedWork); codecs that chain state across steps are restarted before
// every compress pass, so every pass does the same work and emits the same
// blobs. Verification runs in its own untimed pass.
func MeasureCodec(p codecPair, tn *Tensor) (CodecResult, error) {
	res := CodecResult{Codec: p.name}
	n := tn.Steps
	jBlobs := make([][]byte, n)
	cBlobs := make([][]byte, n)
	refs := func(i int) (refJ, refC []float64) {
		if i+1 < n {
			return tn.JS[i+1], tn.CS[i+1]
		}
		return nil, nil
	}

	var err error
	res.CompressTime, err = bestOf(func() error {
		for _, c := range []compress.Compressor{p.j, p.c} {
			if r, ok := c.(interface{ Restart() }); ok {
				r.Restart()
			}
		}
		for i := 0; i < n; i++ {
			refJ, refC := refs(i)
			jBlobs[i] = p.j.Compress(jBlobs[i][:0], tn.JS[i], refJ)
			cBlobs[i] = p.c.Compress(cBlobs[i][:0], tn.CS[i], refC)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	for i := range jBlobs {
		res.CompressedBytes += int64(len(jBlobs[i]) + len(cBlobs[i]))
	}

	lossless := p.j.Lossless() && p.c.Lossless()
	jBuf := make([]float64, len(tn.JS[0]))
	cBuf := make([]float64, len(tn.CS[0]))
	decompress := func(verify bool) error {
		for i := n - 1; i >= 0; i-- {
			refJ, refC := refs(i)
			if err := p.j.Decompress(jBuf, jBlobs[i], refJ); err != nil {
				return fmt.Errorf("bench: %s step %d J: %w", p.name, i, err)
			}
			if err := p.c.Decompress(cBuf, cBlobs[i], refC); err != nil {
				return fmt.Errorf("bench: %s step %d C: %w", p.name, i, err)
			}
			if !verify {
				continue
			}
			for k := range jBuf {
				if math.Float64bits(jBuf[k]) != math.Float64bits(tn.JS[i][k]) {
					return fmt.Errorf("bench: %s step %d J[%d] roundtrip mismatch", p.name, i, k)
				}
			}
			for k := range cBuf {
				if math.Float64bits(cBuf[k]) != math.Float64bits(tn.CS[i][k]) {
					return fmt.Errorf("bench: %s step %d C[%d] roundtrip mismatch", p.name, i, k)
				}
			}
		}
		return nil
	}
	if err := decompress(lossless); err != nil {
		return res, err
	}
	res.RoundTripChecked = lossless
	if res.DecompressTime, err = bestOf(func() error { return decompress(false) }); err != nil {
		return res, err
	}

	raw := tn.RawBytes()
	res.CR = float64(raw) / float64(res.CompressedBytes)
	mb := float64(raw) / 1e6
	res.CompressMBps = mb / res.CompressTime.Seconds()
	res.DecompressMBps = mb / res.DecompressTime.Seconds()
	return res, nil
}

// bestOf runs pass at least minTimedPasses times and until the passes total
// minTimedWork, and returns the fastest pass's time.
func bestOf(pass func() error) (time.Duration, error) {
	var best, total time.Duration
	for k := 0; k < minTimedPasses || total < minTimedWork; k++ {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		total += d
		if k == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// fmtBytes renders a byte count with a binary-ish unit, mirroring the
// paper's GB columns.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// SaveFile writes the tensor to path in the masc tensor file format.
func (t *Tensor) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := jactensor.WriteTensorFile(f, t.JPat, t.CPat, t.JS, t.CS); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTensor reads a tensor file produced by SaveFile (or any tool using
// jactensor.WriteTensorFile).
func LoadTensor(path string) (*Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	jp, cp, js, cs, err := jactensor.ReadTensorFile(f)
	if err != nil {
		return nil, err
	}
	return &Tensor{
		Name:  filepath.Base(path),
		JPat:  jp,
		CPat:  cp,
		JS:    js,
		CS:    cs,
		Steps: len(js),
	}, nil
}
