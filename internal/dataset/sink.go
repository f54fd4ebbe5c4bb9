package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"runtime/pprof"
	"slices"
)

// ProfilePhases enables the "hash" runtime/pprof phase label around
// HashSink's digest folds, complementing the control/kernel/emit labels the
// campaign engine attaches when its own flag is set. Off by default so the
// fleet's hot loop pays nothing when no profile is being taken; cmd/fleet
// and cmd/drivesim set it alongside -cpuprofile.
var ProfilePhases bool

// Sink consumes campaign records in production order, one record or one
// borrowed slice of records per call. It is the streaming counterpart of
// Dataset: the campaign engine emits every record into a Sink the moment it
// exists, so a consumer that reduces incrementally (analysis.Accumulator,
// ParallelCSVWriter, HashSink) never holds the whole dataset in memory.
// Collector is the Sink that materializes a Dataset, reproducing the
// pre-streaming behavior byte-for-byte.
//
// Each EmitXxxAll call is exactly equivalent to emitting the slice's
// records in order through the per-record method — same records, same
// per-table order, so the same bytes from every sink. The slice is borrowed
// for the duration of the call: implementations must neither mutate nor
// retain it (a Tee hands the same slice to every member).
//
// Emit methods do not return errors; sinks with fallible backends (e.g.
// ParallelCSVWriter) latch the first error internally and report it from
// Flush. Flush finalizes the sink — closing files, flushing buffers — and
// must be called exactly once by whoever owns the sink, after the last emit.
type Sink interface {
	EmitThr(ThroughputSample)
	EmitRTT(RTTSample)
	EmitHandover(HandoverRecord)
	EmitTest(TestSummary)
	EmitApp(AppRun)
	EmitPassive(PassiveSample)
	EmitThrAll([]ThroughputSample)
	EmitRTTAll([]RTTSample)
	EmitHandoverAll([]HandoverRecord)
	EmitTestAll([]TestSummary)
	EmitAppAll([]AppRun)
	EmitPassiveAll([]PassiveSample)
	Flush() error
}

// EmitThrAll emits a batch into sink; it and the other EmitXxxAll
// functions forward to the Sink method of the same name.
func EmitThrAll(sink Sink, recs []ThroughputSample) { sink.EmitThrAll(recs) }

// EmitRTTAll emits a batch of RTT samples; see EmitThrAll.
func EmitRTTAll(sink Sink, recs []RTTSample) { sink.EmitRTTAll(recs) }

// EmitHandoverAll emits a batch of handover records; see EmitThrAll.
func EmitHandoverAll(sink Sink, recs []HandoverRecord) { sink.EmitHandoverAll(recs) }

// EmitTestAll emits a batch of test summaries; see EmitThrAll.
func EmitTestAll(sink Sink, recs []TestSummary) { sink.EmitTestAll(recs) }

// EmitAppAll emits a batch of app runs; see EmitThrAll.
func EmitAppAll(sink Sink, recs []AppRun) { sink.EmitAppAll(recs) }

// EmitPassiveAll emits a batch of passive samples; see EmitThrAll.
func EmitPassiveAll(sink Sink, recs []PassiveSample) { sink.EmitPassiveAll(recs) }

// EmitTo replays every record of d into sink, table by table in the
// canonical CSV order (throughput, RTT, handovers, tests, apps, passive).
// Replaying a Collector's dataset reproduces the original per-table emit
// order, which is what makes streaming and materialized consumers
// byte-equivalent. Each table goes through one batch call, so a replay
// costs six dispatches per sink, not one per record.
func (d *Dataset) EmitTo(sink Sink) {
	sink.EmitThrAll(d.Thr)
	sink.EmitRTTAll(d.RTT)
	sink.EmitHandoverAll(d.Handovers)
	sink.EmitTestAll(d.Tests)
	sink.EmitAppAll(d.Apps)
	sink.EmitPassiveAll(d.Passive)
}

// Collector is the materializing Sink: it appends every record to an
// in-memory Dataset, exactly as campaign.Run did before the streaming
// refactor. The zero value is ready to use (seed 0).
type Collector struct {
	D Dataset
}

// NewCollector returns a Collector whose dataset carries the given seed.
func NewCollector(seed int64) *Collector { return &Collector{D: Dataset{Seed: seed}} }

// Dataset returns the collected dataset.
func (c *Collector) Dataset() *Dataset { return &c.D }

// Reset empties the collected dataset in place, keeping every table's
// backing array (and the seed), so a collector reused as per-phase scratch
// stops allocating once its tables have grown to the phase's working size.
// Records previously read out of the collector must already be copied —
// the next emits overwrite them.
func (c *Collector) Reset() {
	c.D.Thr = c.D.Thr[:0]
	c.D.RTT = c.D.RTT[:0]
	c.D.Handovers = c.D.Handovers[:0]
	c.D.Tests = c.D.Tests[:0]
	c.D.Apps = c.D.Apps[:0]
	c.D.Passive = c.D.Passive[:0]
}

func (c *Collector) EmitThr(s ThroughputSample)    { c.D.Thr = append(c.D.Thr, s) }
func (c *Collector) EmitRTT(s RTTSample)           { c.D.RTT = append(c.D.RTT, s) }
func (c *Collector) EmitHandover(h HandoverRecord) { c.D.Handovers = append(c.D.Handovers, h) }
func (c *Collector) EmitTest(t TestSummary)        { c.D.Tests = append(c.D.Tests, t) }
func (c *Collector) EmitApp(a AppRun)              { c.D.Apps = append(c.D.Apps, a) }
func (c *Collector) EmitPassive(p PassiveSample)   { c.D.Passive = append(c.D.Passive, p) }
func (c *Collector) Flush() error                  { return nil }

// Batch emits: a slice append copies the records, so the borrowed batch
// slice is never retained.
func (c *Collector) EmitThrAll(recs []ThroughputSample) { c.D.Thr = append(c.D.Thr, recs...) }
func (c *Collector) EmitRTTAll(recs []RTTSample)        { c.D.RTT = append(c.D.RTT, recs...) }
func (c *Collector) EmitHandoverAll(recs []HandoverRecord) {
	c.D.Handovers = append(c.D.Handovers, recs...)
}
func (c *Collector) EmitTestAll(recs []TestSummary)      { c.D.Tests = append(c.D.Tests, recs...) }
func (c *Collector) EmitAppAll(recs []AppRun)            { c.D.Apps = append(c.D.Apps, recs...) }
func (c *Collector) EmitPassiveAll(recs []PassiveSample) { c.D.Passive = append(c.D.Passive, recs...) }

// Tee fans every record out to all the given sinks in order. Flush flushes
// every sink and returns the first error.
func Tee(sinks ...Sink) Sink { return tee(sinks) }

type tee []Sink

func (t tee) EmitThr(s ThroughputSample) {
	for _, k := range t {
		k.EmitThr(s)
	}
}
func (t tee) EmitRTT(s RTTSample) {
	for _, k := range t {
		k.EmitRTT(s)
	}
}
func (t tee) EmitHandover(h HandoverRecord) {
	for _, k := range t {
		k.EmitHandover(h)
	}
}
func (t tee) EmitTest(s TestSummary) {
	for _, k := range t {
		k.EmitTest(s)
	}
}
func (t tee) EmitApp(a AppRun) {
	for _, k := range t {
		k.EmitApp(a)
	}
}
func (t tee) EmitPassive(p PassiveSample) {
	for _, k := range t {
		k.EmitPassive(p)
	}
}

// Batch emits fan the same borrowed slice out to every member, none of
// which may mutate the records.
func (t tee) EmitThrAll(recs []ThroughputSample) {
	for _, k := range t {
		k.EmitThrAll(recs)
	}
}
func (t tee) EmitRTTAll(recs []RTTSample) {
	for _, k := range t {
		k.EmitRTTAll(recs)
	}
}
func (t tee) EmitHandoverAll(recs []HandoverRecord) {
	for _, k := range t {
		k.EmitHandoverAll(recs)
	}
}
func (t tee) EmitTestAll(recs []TestSummary) {
	for _, k := range t {
		k.EmitTestAll(recs)
	}
}
func (t tee) EmitAppAll(recs []AppRun) {
	for _, k := range t {
		k.EmitAppAll(recs)
	}
}
func (t tee) EmitPassiveAll(recs []PassiveSample) {
	for _, k := range t {
		k.EmitPassiveAll(recs)
	}
}
func (t tee) Flush() error {
	var first error
	for _, k := range t {
		if err := k.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tableEnc is the one emit front end of the byte sinks (HashSink and
// ParallelCSVWriter): it CSV-encodes every
// record through the rowEnc codecs into its table's buffer, which starts
// with the table's header row, and cuts the buffer into pieces of about
// chunkBytes. Each piece goes to the owner through hand, which consumes it
// and returns the buffer the table's next piece is encoded into. end tells
// the owner that the piece closes a gzip member: the member has reached
// chunkRows rows, or Flush is closing it. Only ParallelCSVWriter reads end;
// HashSink sets chunkRows to math.MaxInt. Embedding a
// tableEnc gives the owner all twelve Sink emit methods; the owner adds
// Flush, which calls flush.
type tableEnc struct {
	enc  rowEnc
	buf  [numTables][]byte
	rows [numTables]int // rows of the table's open member, the header not counted; hand sees them before a member's end resets them

	chunkRows int
	hand      func(tab int, piece []byte, end bool) []byte
}

// chunkBytes is the piece size: large enough to amortize the per-piece
// hash, write or deflate call over long contiguous buffers, and it never
// changes any owner's output.
const chunkBytes = 64 * 1024

// start begins table tab's first piece in b with the header row.
func (e *tableEnc) start(tab int, b []byte) {
	e.buf[tab] = csvAppendRow(b[:0], tableHeaders[tab])
	e.rows[tab] = 0
}

// rowHeadroom is the free capacity add keeps ahead of the next row. A
// piece buffer that runs short is doubled here, not left to append, whose
// ~1.25× steps at these sizes would allocate about five times a piece's
// final size on the way there instead of about two.
const rowHeadroom = 1024

// add counts the row just encoded into b and hands b off when it ends the
// member or fills the piece, returning the buffer to keep encoding into.
func (e *tableEnc) add(tab int, b []byte) []byte {
	e.rows[tab]++
	if e.rows[tab] >= e.chunkRows {
		b = e.hand(tab, b, true)
		e.rows[tab] = 0
		return b
	}
	if len(b) >= chunkBytes {
		return e.hand(tab, b, false)
	}
	if cap(b)-len(b) < rowHeadroom {
		b = slices.Grow(b, cap(b)+rowHeadroom)
	}
	return b
}

// flush closes every table's open member: it hands off the partial piece,
// which is empty when the member's last rows already went out in a full
// piece. A table that never saw a row still hands off its header, so every
// output carries all six headers.
func (e *tableEnc) flush() {
	for i := range e.buf {
		if len(e.buf[i]) > 0 || e.rows[i] > 0 {
			e.buf[i] = e.hand(i, e.buf[i], true)
			e.rows[i] = 0
		}
	}
}

func (e *tableEnc) EmitThr(r ThroughputSample) {
	e.buf[tabThr] = e.add(tabThr, e.enc.csvAppendThr(e.buf[tabThr], r))
}
func (e *tableEnc) EmitRTT(r RTTSample) {
	e.buf[tabRTT] = e.add(tabRTT, e.enc.csvAppendRTT(e.buf[tabRTT], r))
}
func (e *tableEnc) EmitHandover(r HandoverRecord) {
	e.buf[tabHO] = e.add(tabHO, e.enc.csvAppendHO(e.buf[tabHO], r))
}
func (e *tableEnc) EmitTest(r TestSummary) {
	e.buf[tabTests] = e.add(tabTests, e.enc.csvAppendTest(e.buf[tabTests], r))
}
func (e *tableEnc) EmitApp(r AppRun) {
	e.buf[tabApps] = e.add(tabApps, e.enc.csvAppendApp(e.buf[tabApps], r))
}
func (e *tableEnc) EmitPassive(r PassiveSample) {
	e.buf[tabPassive] = e.add(tabPassive, e.enc.csvAppendPassive(e.buf[tabPassive], r))
}

// Batch emits run the same per-row encode and piece check, keeping the
// table's buffer in a local across the slice.
func (e *tableEnc) EmitThrAll(recs []ThroughputSample) {
	b := e.buf[tabThr]
	for i := range recs {
		b = e.add(tabThr, e.enc.csvAppendThr(b, recs[i]))
	}
	e.buf[tabThr] = b
}
func (e *tableEnc) EmitRTTAll(recs []RTTSample) {
	b := e.buf[tabRTT]
	for i := range recs {
		b = e.add(tabRTT, e.enc.csvAppendRTT(b, recs[i]))
	}
	e.buf[tabRTT] = b
}
func (e *tableEnc) EmitHandoverAll(recs []HandoverRecord) {
	b := e.buf[tabHO]
	for i := range recs {
		b = e.add(tabHO, e.enc.csvAppendHO(b, recs[i]))
	}
	e.buf[tabHO] = b
}
func (e *tableEnc) EmitTestAll(recs []TestSummary) {
	b := e.buf[tabTests]
	for i := range recs {
		b = e.add(tabTests, e.enc.csvAppendTest(b, recs[i]))
	}
	e.buf[tabTests] = b
}
func (e *tableEnc) EmitAppAll(recs []AppRun) {
	b := e.buf[tabApps]
	for i := range recs {
		b = e.add(tabApps, e.enc.csvAppendApp(b, recs[i]))
	}
	e.buf[tabApps] = b
}
func (e *tableEnc) EmitPassiveAll(recs []PassiveSample) {
	b := e.buf[tabPassive]
	for i := range recs {
		b = e.add(tabPassive, e.enc.csvAppendPassive(b, recs[i]))
	}
	e.buf[tabPassive] = b
}

// HashSink computes a SHA-256 fingerprint of the dataset's canonical CSV
// encoding without materializing any of it: each record is CSV-encoded
// exactly as ParallelCSVWriter encodes it and fed to a per-table hash, and
// Sum combines the per-table digests (bound to their file names) into one
// hex string. Emitting a dataset into a HashSink therefore fingerprints
// exactly the CSV bytes the writer compresses, table order and headers
// included.
type HashSink struct {
	tableEnc
	h [numTables]hash.Hash
}

// NewHashSink returns a HashSink with the table headers already encoded.
// Pieces are folded into the hashes every chunkBytes: SHA-256 consumes
// input in 64-byte blocks, so the piece size only amortizes call overhead
// (the hash loop, SHA-NI on amd64, runs over long contiguous buffers) and
// never changes the digest.
func NewHashSink() *HashSink {
	s := &HashSink{}
	s.chunkRows, s.hand = math.MaxInt, s.fold
	for i := range s.h {
		s.h[i] = sha256.New()
		s.start(i, make([]byte, 0, chunkBytes+rowHeadroom))
	}
	return s
}

// Reset rewinds the sink to its freshly-constructed state (headers encoded,
// nothing else), reusing the hash and buffer machinery. Fleet workers reset
// one HashSink per seed instead of allocating a new one.
func (s *HashSink) Reset() {
	for i := range s.h {
		s.h[i].Reset()
		s.start(i, s.buf[i])
	}
}

// fold feeds one piece of encoded rows into the table's hash, under the
// "hash" pprof phase label when ProfilePhases is set. hash.Hash writes never
// fail. Folds happen once per chunkBytes of rows, so the label region
// overhead is amortized over ~64 KiB of hashing.
func (s *HashSink) fold(tab int, b []byte, _ bool) []byte {
	if !ProfilePhases {
		s.h[tab].Write(b)
		return b[:0]
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "hash"), func(context.Context) {
		s.h[tab].Write(b)
	})
	return b[:0]
}

// Flush folds every partial piece into its hash.
func (s *HashSink) Flush() error {
	s.flush()
	return nil
}

// Sum returns the combined hex digest. It flushes internally, so it is
// valid with or without a prior Flush call.
func (s *HashSink) Sum() string {
	s.Flush()
	return sumTables(&s.h)
}

// sumTables combines per-table digests, each bound to its table's file
// name, into one hex string.
func sumTables(h *[numTables]hash.Hash) string {
	all := sha256.New()
	for i := range h {
		io.WriteString(all, tableNames[i])
		all.Write([]byte{0})
		all.Write(h[i].Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil))
}
