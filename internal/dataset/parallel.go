package dataset

import (
	"compress/gzip"
	"crypto/sha256"
	"hash"
	"os"
	"runtime"
	"sync"
)

// DefaultChunkRows is the member size ParallelCSVWriter uses when the
// caller passes chunkRows <= 0. 8192 rows is ~1 MB of throughput-table CSV —
// large enough that the per-member gzip overhead (~20 bytes + a reset
// dictionary) is noise, small enough that all workers stay busy on a
// single table.
const DefaultChunkRows = 8192

// gzipLevel is the deflate level of every member. It was chosen by
// measurement (DESIGN §10): re-compressing a sweep's dump tree in 8192-row
// members, level 5 writes 0.5% more bytes than gzip's default level 6 for
// 0.69–0.76× its CPU, level 4 6.3% more for 0.56–0.59×, and level 1 18.6%
// more for 0.30–0.33×. Level 5 is the fastest within 1% of level 6's
// bytes. Changing it changes every .gz byte, never the decompressed
// content.
const gzipLevel = 5

// ParallelCSVWriter is the gzip CSV exporter: one <table>.csv.gz file per
// record type, the same headers and row encoding as Save's plain files,
// with the compression running beside the emitting goroutine. Rows are
// CSV-encoded in emit order and cut into gzip members of chunkRows rows;
// the members are concatenated in order. Concatenated members are a valid
// gzip stream (RFC 1952 §2.2), so gzip.Reader — and therefore Load —
// decodes the files transparently.
//
// A member is compressed while it fills: each ~64 KiB piece of its rows is
// written to the member's gzip.Writer as soon as it is encoded, and the
// member is closed when its last row arrives. Flush therefore compresses
// only each table's last partial piece. Members compress concurrently, two
// of the same table included, with at most workers deflate calls running at
// once, and each table's members are written to its file in order.
//
// The output is byte-deterministic for a fixed chunkRows: without a flate
// Flush, a member's deflate stream does not depend on how its input is
// split across Write calls, so each member is the gzip of its rows in one
// Write, and neither the worker count nor the timing changes the file.
//
// Each piece is also folded into a per-table SHA-256 as it is handed to
// deflate, so Sum reports HashSink's digest of the same records without a
// second encoding: a dumped dataset's digest is the digest of the bytes the
// writer compressed.
//
// Like every Sink, it is single-producer: Emit methods must come from one
// goroutine, with Flush called exactly once after the last emit. Emits
// after Flush are dropped.
type ParallelCSVWriter struct {
	tableEnc
	files  [numTables]*os.File
	h      [numTables]hash.Hash     // digest of each table's pieces, in order
	open   [numTables]*member       // member receiving the table's pieces, nil between members
	handed [numTables]int           // rows of the table's open member already submitted
	prev   [numTables]chan struct{} // written channel of the table's last started member
	slots  [numTables]chan struct{} // one token per member started and not yet written
	sem    chan struct{}            // one token per running deflate call
	wg     sync.WaitGroup           // one count per member goroutine
	done   bool

	mu       sync.Mutex
	pieces   *pieceList // recycled piece buffers, for rows and for compressed bytes
	raw      int        // rows in the pieces queued and not yet deflated
	rawCap   int        // bound on raw: one member's rows per worker
	rawFreed sync.Cond  // signalled when raw falls
	err      error
}

// member is one gzip member in flight: the emit goroutine queues its pieces
// of rows and ends it; the member's own goroutine deflates the pieces in
// order into out and writes out to the file once every earlier member of
// the table is written.
type member struct {
	w       *ParallelCSVWriter
	mu      sync.Mutex
	more    sync.Cond // signalled when a piece is queued or the member ends
	queue   []rawPiece
	end     bool
	out     [][]byte      // the compressed member, in pieces
	prev    chan struct{} // closed once the table's previous member is written
	written chan struct{} // closed once this member is written
}

// rawPiece is a piece of CSV rows waiting for deflate.
type rawPiece struct {
	b    []byte
	rows int
}

// gzwPool recycles gzip writers, whose deflate state is most of their cost,
// across members and writers.
var gzwPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzipLevel) // gzipLevel is valid
	return zw
}}

// pieceList is a writer's stock of free piece buffers. pieceLists hands
// each new writer the stock a flushed one left behind, the way gzwPool
// recycles compressors: a fleet opens one writer per dumped seed, and each
// would otherwise grow its own stock from nothing.
type pieceList struct{ free [][]byte }

var pieceLists = sync.Pool{New: func() any { return new(pieceList) }}

// NewParallelCSVWriter creates dir if needed and opens the six table
// streams. workers <= 0 means GOMAXPROCS; chunkRows <= 0 means
// DefaultChunkRows. Changing chunkRows changes the output bytes (but never
// the decompressed content); keep it fixed where byte-level reproducibility
// of the .gz files matters.
func NewParallelCSVWriter(dir string, workers, chunkRows int) (*ParallelCSVWriter, error) {
	files, err := createTables(dir, ".gz")
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	w := &ParallelCSVWriter{
		files:  files,
		sem:    make(chan struct{}, workers),
		pieces: pieceLists.Get().(*pieceList),
		rawCap: workers * chunkRows,
	}
	w.rawFreed.L = &w.mu
	w.chunkRows, w.hand = chunkRows, w.submit
	first := make(chan struct{}) // the prev of each table's first member
	close(first)
	for i := range w.buf {
		w.h[i] = sha256.New()
		w.start(i, w.piece())
		w.prev[i] = first
		// 2×workers members per table keep every worker busy while the
		// oldest waits to be written, and bound the rows held in memory.
		w.slots[i] = make(chan struct{}, 2*workers)
	}
	return w, nil
}

// submit is the tableEnc hand-off: it folds piece b into the table's
// digest and queues it on the table's open member, starting the member if b
// is its first piece and ending it if end is set, and returns a buffer for
// the table's next piece. Caller is the single emit goroutine.
//
// submit is also the writer's backpressure: it blocks while queuing b would
// hold more than rawCap rows, one member's worth per worker, in pieces not
// yet deflated. Deflate is the slow side of a dump, so a fast producer
// would otherwise run up to 2×workers members per table of raw rows ahead
// of it. A bound in rows, not bytes, lets every worker have a whole member
// queued whatever the table's row width, so a burst of one table still
// spreads across cores (DESIGN §10). Compressed members waiting for their
// turn to be written do not count, so they never block the emitter.
func (w *ParallelCSVWriter) submit(tab int, b []byte, end bool) []byte {
	if w.done { // emits after Flush are dropped
		return b[:0]
	}
	rows := w.rows[tab] - w.handed[tab]
	w.handed[tab] = w.rows[tab]
	if end {
		w.handed[tab] = 0
	}
	if len(b) > 0 {
		w.h[tab].Write(b) // hash.Hash writes never fail
		w.mu.Lock()
		for w.raw+rows > w.rawCap { // rows <= chunkRows <= rawCap, so an empty queue takes any piece
			w.rawFreed.Wait()
		}
		w.raw += rows
		w.mu.Unlock()
	}
	m := w.open[tab]
	if m == nil {
		w.slots[tab] <- struct{}{} // blocks when the table is 2×workers members ahead
		m = &member{w: w, prev: w.prev[tab], written: make(chan struct{})}
		m.more.L = &m.mu
		w.open[tab], w.prev[tab] = m, m.written
		w.wg.Add(1)
		go w.compress(tab, m)
	}
	m.mu.Lock()
	if len(b) > 0 {
		m.queue = append(m.queue, rawPiece{b, rows})
		b = w.piece()
	}
	if end {
		m.end = true
		w.open[tab] = nil
	}
	m.mu.Unlock()
	m.more.Signal()
	return b[:0]
}

// compress runs one member: it deflates the member's pieces as they are
// queued, then writes the member to the table's file after its predecessor.
// Each batch of queued pieces is deflated under one semaphore token. The
// gzip.Writer is taken at the first batch, not when the member starts, so a
// member still waiting for a token holds no deflate state.
func (w *ParallelCSVWriter) compress(tab int, m *member) {
	defer w.wg.Done()
	var zw *gzip.Writer
	var batch []rawPiece
	for end := false; !end; {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.end {
			m.more.Wait()
		}
		batch, m.queue = m.queue, batch[:0]
		end = m.end
		m.mu.Unlock()
		w.sem <- struct{}{}
		if zw == nil {
			zw = gzwPool.Get().(*gzip.Writer)
			zw.Reset(m)
		}
		for i, p := range batch {
			zw.Write(p.b) // member.Write never fails
			w.deflated(p)
			batch[i] = rawPiece{}
		}
		if end {
			zw.Close() // member.Write never fails
		}
		<-w.sem
	}
	gzwPool.Put(zw)
	<-m.prev
	for _, p := range m.out {
		if _, err := w.files[tab].Write(p); err != nil {
			w.latch(err)
		}
		w.recycle(p)
	}
	close(m.written)
	<-w.slots[tab]
}

// Write appends compressed bytes to the member's out pieces. Only the
// member's goroutine calls it, through the member's gzip.Writer.
func (m *member) Write(b []byte) (int, error) {
	n := len(b)
	for len(b) > 0 {
		last := len(m.out) - 1
		if last < 0 || len(m.out[last]) == chunkBytes {
			m.out = append(m.out, m.w.piece())
			last++
		}
		k := min(len(b), chunkBytes-len(m.out[last]))
		m.out[last] = append(m.out[last], b[:k]...)
		b = b[k:]
	}
	return n, nil
}

// piece returns an empty piece buffer, recycled when one is free.
func (w *ParallelCSVWriter) piece() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	l := w.pieces
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b
	}
	return make([]byte, 0, chunkBytes+rowHeadroom)
}

func (w *ParallelCSVWriter) recycle(b []byte) {
	w.mu.Lock()
	w.pieces.free = append(w.pieces.free, b[:0])
	w.mu.Unlock()
}

// deflated recycles piece p once deflate has consumed it, and lets a
// blocked submit queue the next one.
func (w *ParallelCSVWriter) deflated(p rawPiece) {
	w.mu.Lock()
	w.pieces.free = append(w.pieces.free, p.b[:0])
	w.raw -= p.rows
	w.mu.Unlock()
	w.rawFreed.Signal()
}

func (w *ParallelCSVWriter) latch(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Flush closes every table's open member (the header-only member of an
// empty table included, so every file is a valid gzip stream), waits for
// every member to be written, closes the files, hands the writer's piece
// stock on to the next writer, and returns the first error from anywhere in
// the writer's lifetime. Only the first call does work.
func (w *ParallelCSVWriter) Flush() error {
	if w.done {
		return w.flushErr()
	}
	w.flush()
	w.done = true
	w.wg.Wait()
	for i := range w.files {
		if err := w.files[i].Close(); err != nil {
			w.latch(err)
		}
	}
	for i := range w.buf {
		w.recycle(w.buf[i])
		w.buf[i] = nil
	}
	w.mu.Lock()
	pieceLists.Put(w.pieces)
	w.pieces = nil
	w.mu.Unlock()
	return w.flushErr()
}

// Sum returns the HashSink digest of the records the writer consumed: the
// SHA-256 of each table's CSV bytes, combined as HashSink.Sum combines
// them. It flushes first, like HashSink.Sum, so it is valid with or without
// a prior Flush call.
func (w *ParallelCSVWriter) Sum() string {
	w.Flush()
	return sumTables(&w.h)
}

func (w *ParallelCSVWriter) flushErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
