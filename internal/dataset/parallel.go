package dataset

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"runtime"
	"sync"
)

// DefaultChunkRows is the chunk size ParallelCSVWriter uses when the caller
// passes chunkRows <= 0. 8192 rows is ~1 MB of throughput-table CSV —
// large enough that the per-member gzip overhead (~20 bytes + a reset
// dictionary) is noise, small enough that all workers stay busy on a
// single table.
const DefaultChunkRows = 8192

// ParallelCSVWriter is the gzip CSV exporter: one <table>.csv.gz file per
// record type, the same headers and row encoding as Save's plain files,
// with the compression on a bounded worker pool. Rows are CSV-encoded in
// emit order into chunks of chunkRows rows; each full chunk is compressed
// as an independent gzip member and the members are concatenated in order.
// Concatenated members are a valid gzip stream (RFC 1952 §2.2), so
// gzip.Reader — and therefore LoadCompressed — decodes the files
// transparently.
//
// The output is byte-deterministic for a fixed chunk size: each member's
// bytes depend only on its chunk's contents, so the worker count changes
// wall-clock time, never the file.
//
// Like every Sink, it is single-producer: Emit methods must come from one
// goroutine, with Flush called exactly once after the last emit. Emits
// after Flush are dropped.
type ParallelCSVWriter struct {
	tableEnc
	files   [numTables]*os.File
	cur     [numTables]*chunk // chunk whose raw buffer tableEnc encodes into
	pending [numTables]chan *chunk
	jobs    chan *chunk
	workers sync.WaitGroup
	writers sync.WaitGroup

	mu   sync.Mutex
	err  error
	done bool
}

// chunk is one gzip member in flight: rows encoded by the emit goroutine,
// deflated by a pool worker, written by its table's commit goroutine.
type chunk struct {
	raw  []byte
	gz   bytes.Buffer
	done chan struct{} // signalled once gz holds the member
	last bool          // Flush's final, partial chunk of its table
}

var (
	// chunkPools has one pool per table, so a recycled chunk's buffers are
	// already sized for the table it serves; through one shared pool every
	// chunk would grow to the largest table's size. Only full chunks are
	// recycled: a writer's last chunk of a table is a partial tail, and
	// keeping those alive between writers costs more memory than
	// reallocating them.
	chunkPools [numTables]sync.Pool
	gzwPool    = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}
)

func getChunk(tab int) *chunk {
	if c, ok := chunkPools[tab].Get().(*chunk); ok {
		return c
	}
	return &chunk{done: make(chan struct{}, 1)}
}

// NewParallelCSVWriter creates dir if needed, opens the six table streams,
// and starts the compression pool. workers <= 0 means GOMAXPROCS;
// chunkRows <= 0 means DefaultChunkRows. Changing chunkRows changes the
// output bytes (but never the decompressed content); keep it fixed where
// byte-level reproducibility of the .gz files matters.
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
	w := &ParallelCSVWriter{files: files, jobs: make(chan *chunk)}
	w.chunkRows, w.chunkBytes, w.hand = chunkRows, math.MaxInt, w.submit
	for i := range w.cur {
		w.cur[i] = getChunk(i)
		w.start(i, w.cur[i].raw)
		// 2×workers of slack keeps every worker busy while the writer
		// commits, and bounds in-flight chunks (memory) per table.
		w.pending[i] = make(chan *chunk, 2*workers)
		w.writers.Add(1)
		go w.commitLoop(i)
	}
	w.workers.Add(workers)
	for n := 0; n < workers; n++ {
		go w.compressLoop()
	}
	return w, nil
}

// compressLoop turns chunk plaintext into independent gzip members.
func (w *ParallelCSVWriter) compressLoop() {
	defer w.workers.Done()
	for c := range w.jobs {
		c.gz.Reset()
		zw := gzwPool.Get().(*gzip.Writer)
		zw.Reset(&c.gz)
		_, werr := zw.Write(c.raw)
		cerr := zw.Close()
		gzwPool.Put(zw)
		if werr != nil || cerr != nil {
			// Writes to a bytes.Buffer cannot fail in practice; latch
			// defensively and emit an empty member so ordering survives.
			w.latch(werr)
			w.latch(cerr)
			c.gz.Reset()
		}
		c.done <- struct{}{}
	}
}

// commitLoop writes table tab's compressed members to its file in
// submission order.
func (w *ParallelCSVWriter) commitLoop(tab int) {
	defer w.writers.Done()
	for c := range w.pending[tab] {
		<-c.done
		if _, err := w.files[tab].Write(c.gz.Bytes()); err != nil {
			w.latch(err)
		}
		if !c.last {
			chunkPools[tab].Put(c)
		}
	}
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

// submit is the tableEnc hand-off: it ships the table's full chunk to the
// pool and returns the raw buffer of a fresh one. Caller is the single emit
// goroutine.
func (w *ParallelCSVWriter) submit(tab int, b []byte) []byte {
	c := w.cur[tab]
	if c == nil { // emits after Flush are dropped
		return b[:0]
	}
	c.raw, c.last = b, w.done
	w.pending[tab] <- c // blocks when the table is 2×workers ahead
	w.jobs <- c
	w.cur[tab] = nil
	if w.done { // Flush's final hand-off needs no next chunk
		return nil
	}
	w.cur[tab] = getChunk(tab)
	return w.cur[tab].raw[:0]
}

// Flush submits every partial chunk (the header-only chunk of an empty
// table included, so every file is a valid gzip stream), drains the pool,
// closes the files, and returns the first error from anywhere in the
// writer's lifetime. Only the first call does work.
func (w *ParallelCSVWriter) Flush() error {
	if w.done {
		return w.flushErr()
	}
	w.done = true
	w.flush()
	w.cur = [numTables]*chunk{}
	close(w.jobs)
	w.workers.Wait()
	for i := range w.pending {
		close(w.pending[i])
	}
	w.writers.Wait()
	for i := range w.files {
		if err := w.files[i].Close(); err != nil {
			w.latch(err)
		}
	}
	return w.flushErr()
}

func (w *ParallelCSVWriter) flushErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
