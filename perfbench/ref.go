package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// The host's speed swings by up to 2x over seconds to minutes (see
// README.md, "Noise"), and the same swings show in a fixed piece of
// standard-library work run beside the program. The timed loop therefore
// times such a reference between pieces of program work, after every block
// and on fleet workloads after every seed, and reports times in units of
// the reference, scaled to refNominal: what the program would take on a
// host where the reference takes refNominal. The reference uses no code of
// this repository, so a change to the program cannot move it.

// refNominal is the reference's nominal duration, its median on the
// development host (2 vCPU, Go 1.24). Normalized times are scaled to it.
const refNominal = 25 * time.Millisecond

// refRecord is one record of the reference's JSON round trip. It holds no
// strings or maps, so decoding it again into the same slice allocates
// nothing and the reference leaves the program's garbage collection alone.
type refRecord struct {
	A, B, C float64
	N       int64
	Ok      bool
	T       []int
}

// refInput is the reference's fixed input, built once outside any timing.
type refInput struct {
	records []refRecord
	back    []refRecord // decoded again on every run, so it allocates little
	text    []byte
	enc     *json.Encoder
	js, out bytes.Buffer
	w       *flate.Writer
	sink    int
}

func newRefInput() *refInput {
	r := rand.New(rand.NewSource(1))
	in := &refInput{records: make([]refRecord, 400)}
	for i := range in.records {
		in.records[i] = refRecord{A: r.Float64(), B: r.NormFloat64(), C: r.ExpFloat64(), N: r.Int63(),
			Ok: r.Intn(2) == 0, T: []int{r.Int(), 3, 4}}
	}
	var b bytes.Buffer
	for b.Len() < 1<<18 {
		b.WriteString(strconv.FormatFloat(r.Float64()*100, 'f', 3, 64))
		b.WriteString(",2026-10-17T11:00:00Z,verizon,5G-mid\n")
	}
	in.text = b.Bytes()
	w, err := flate.NewWriter(&in.out, 6)
	if err != nil {
		panic(err)
	}
	in.w = w
	in.enc = json.NewEncoder(&in.js)
	return in
}

// run times one reference: eight JSON round trips of the records and eight
// flate compressions of the text.
func (in *refInput) run() time.Duration {
	t := time.Now()
	for k := 0; k < 8; k++ {
		in.js.Reset()
		if err := in.enc.Encode(in.records); err != nil {
			panic(err)
		}
		if err := json.Unmarshal(in.js.Bytes(), &in.back); err != nil {
			panic(err)
		}
		in.sink += len(in.back)
	}
	for k := 0; k < 8; k++ {
		in.out.Reset()
		in.w.Reset(&in.out)
		in.w.Write(in.text)
		in.w.Close()
		in.sink += in.out.Len()
	}
	return time.Since(t)
}

// reference runs one copy of the reference per thread at once, so that a
// workload that keeps both cores busy is measured against both.
type reference struct{ copies []*refInput }

func newReference(threads int) *reference {
	r := &reference{}
	for i := 0; i < threads; i++ {
		r.copies = append(r.copies, newRefInput())
	}
	return r
}

// run times one reference on every thread; it ends when the last copy does.
func (r *reference) run() time.Duration {
	t := time.Now()
	var wg sync.WaitGroup
	for _, in := range r.copies[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.run()
		}()
	}
	r.copies[0].run()
	wg.Wait()
	return time.Since(t)
}

// normalize scales a time measured while the reference took ref seconds
// to the time it would take where the reference takes refNominal.
func normalize(seconds, ref float64) float64 {
	return seconds / ref * refNominal.Seconds()
}

// refClock times program work in pieces, with a reference timed between
// every two pieces; the references themselves are left out of every piece.
// Piece i lies between refs[i] and refs[i+1].
type refClock struct {
	ref    *reference
	refs   []refTime
	pieces []piece
	block  int // the block the next pieces belong to
	t      time.Time
	cpu0   float64
	alloc0 uint64
	alloc  uint64 // bytes allocated by all pieces
}

// refTime is one reference's wall and process CPU seconds.
type refTime struct{ wall, cpu float64 }

// piece is one stretch of program work between two references.
type piece struct {
	block     int
	wall, cpu float64 // seconds
}

// timeRef times one reference; its CPU time is per thread.
func (c *refClock) timeRef() refTime {
	cpu := cpuSeconds()
	wall := c.ref.run().Seconds()
	return refTime{wall, (cpuSeconds() - cpu) / float64(len(c.ref.copies))}
}

// begin warms the reference up and times the first one.
func (c *refClock) begin() {
	c.ref.run()
	c.refs = append(c.refs, c.timeRef())
}

// start starts a piece.
func (c *refClock) start() {
	c.alloc0 = totalAlloc()
	c.t, c.cpu0 = time.Now(), cpuSeconds()
}

// mark ends the piece, times the reference and starts the next piece.
func (c *refClock) mark() {
	wall, cpu := time.Since(c.t).Seconds(), cpuSeconds()-c.cpu0
	c.alloc += totalAlloc() - c.alloc0
	c.record(piece{c.block, wall, cpu})
	c.start()
}

// record adds a piece timed elsewhere, then times the reference.
func (c *refClock) record(p piece) {
	c.pieces = append(c.pieces, p)
	c.refs = append(c.refs, c.timeRef())
}

// medianRef is the median wall time of the references, in seconds.
func (c *refClock) medianRef() float64 {
	xs := make([]float64, len(c.refs))
	for i, r := range c.refs {
		xs[i] = r.wall
	}
	return median(xs)
}

// refWindow is the number of references on each side of a piece whose mean
// normalizes it: enough to average out the reference's own jitter, few
// enough to follow the host's drift over seconds.
const refWindow = 3

// blockTimes sums the pieces of each of n blocks, raw and normalized. A
// piece's normalized wall time is its wall time over the mean wall time of
// the refWindow references on each side of it, scaled to refNominal; its
// normalized CPU time is its CPU time over the same references' mean CPU
// time, so time the host keeps the process off the CPU, which stretches the
// wall time of both, is left out of both.
func blockTimes(pieces []piece, refs []refTime, n int) (wall, cpu, normWall, normCPU []float64) {
	wall, cpu = make([]float64, n), make([]float64, n)
	normWall, normCPU = make([]float64, n), make([]float64, n)
	for i, p := range pieces {
		lo, hi := max(0, i+1-refWindow), min(len(refs), i+1+refWindow)
		var rw, rc float64
		for _, r := range refs[lo:hi] {
			rw += r.wall
			rc += r.cpu
		}
		k := float64(hi - lo)
		wall[p.block] += p.wall
		cpu[p.block] += p.cpu
		normWall[p.block] += normalize(p.wall, rw/k)
		normCPU[p.block] += normalize(p.cpu, rc/k)
	}
	return wall, cpu, normWall, normCPU
}
