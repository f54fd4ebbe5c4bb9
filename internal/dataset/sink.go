package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"runtime/pprof"
)

// ProfilePhases enables the "hash" runtime/pprof phase label around
// HashSink's digest folds, complementing the control/kernel/emit labels the
// campaign engine attaches when its own flag is set. Off by default so the
// fleet's hot loop pays nothing when no profile is being taken; cmd/fleet
// and cmd/drivesim set it alongside -cpuprofile.
var ProfilePhases bool

// Sink consumes campaign records one at a time, in production order. It is
// the streaming counterpart of Dataset: the campaign engine emits every
// record into a Sink the moment it exists, so a consumer that reduces
// incrementally (analysis.Accumulator, CSVWriter, HashSink) never holds the
// whole dataset in memory. Collector is the Sink that materializes a
// Dataset, reproducing the pre-streaming behavior byte-for-byte.
//
// Emit methods do not return errors; sinks with fallible backends (e.g.
// CSVWriter) latch the first error internally and report it from Flush.
// Flush finalizes the sink — closing files, flushing buffers — and must be
// called exactly once by whoever owns the sink, after the last emit.
type Sink interface {
	EmitThr(ThroughputSample)
	EmitRTT(RTTSample)
	EmitHandover(HandoverRecord)
	EmitTest(TestSummary)
	EmitApp(AppRun)
	EmitPassive(PassiveSample)
	Flush() error
}

// BatchSink is the optional bulk interface of a Sink: a sink that also
// implements it consumes a whole slice of records per call, so a producer
// with records already staged in a slice pays one interface dispatch per
// batch instead of one per record (per Tee member). Each EmitXxxAll call is
// exactly equivalent to emitting the slice's records in order through the
// scalar method — same records, same per-table order, so the same bytes
// from every sink. The slice is borrowed for the duration of the call:
// implementations must neither mutate nor retain it (a Tee hands the same
// slice to every member).
type BatchSink interface {
	EmitThrAll([]ThroughputSample)
	EmitRTTAll([]RTTSample)
	EmitHandoverAll([]HandoverRecord)
	EmitTestAll([]TestSummary)
	EmitAppAll([]AppRun)
	EmitPassiveAll([]PassiveSample)
}

// EmitThrAll emits a batch into sink: one bulk call when sink implements
// BatchSink, the per-record loop otherwise. The EmitXxxAll helpers are how
// producers dispatch batches without caring which kind of sink they hold.
func EmitThrAll(sink Sink, recs []ThroughputSample) {
	if b, ok := sink.(BatchSink); ok {
		b.EmitThrAll(recs)
		return
	}
	for _, r := range recs {
		sink.EmitThr(r)
	}
}

// EmitRTTAll emits a batch of RTT samples; see EmitThrAll.
func EmitRTTAll(sink Sink, recs []RTTSample) {
	if b, ok := sink.(BatchSink); ok {
		b.EmitRTTAll(recs)
		return
	}
	for _, r := range recs {
		sink.EmitRTT(r)
	}
}

// EmitHandoverAll emits a batch of handover records; see EmitThrAll.
func EmitHandoverAll(sink Sink, recs []HandoverRecord) {
	if b, ok := sink.(BatchSink); ok {
		b.EmitHandoverAll(recs)
		return
	}
	for _, r := range recs {
		sink.EmitHandover(r)
	}
}

// EmitTestAll emits a batch of test summaries; see EmitThrAll.
func EmitTestAll(sink Sink, recs []TestSummary) {
	if b, ok := sink.(BatchSink); ok {
		b.EmitTestAll(recs)
		return
	}
	for _, r := range recs {
		sink.EmitTest(r)
	}
}

// EmitAppAll emits a batch of app runs; see EmitThrAll.
func EmitAppAll(sink Sink, recs []AppRun) {
	if b, ok := sink.(BatchSink); ok {
		b.EmitAppAll(recs)
		return
	}
	for _, r := range recs {
		sink.EmitApp(r)
	}
}

// EmitPassiveAll emits a batch of passive samples; see EmitThrAll.
func EmitPassiveAll(sink Sink, recs []PassiveSample) {
	if b, ok := sink.(BatchSink); ok {
		b.EmitPassiveAll(recs)
		return
	}
	for _, r := range recs {
		sink.EmitPassive(r)
	}
}

// EmitTo replays every record of d into sink, table by table in the
// canonical CSV order (throughput, RTT, handovers, tests, apps, passive).
// Replaying a Collector's dataset reproduces the original per-table emit
// order, which is what makes streaming and materialized consumers
// byte-equivalent. Each table goes through the batch helpers, so replaying
// into batch-aware sinks (the fleet reduction, the phase merge) costs six
// dispatches per member, not one per record.
func (d *Dataset) EmitTo(sink Sink) {
	EmitThrAll(sink, d.Thr)
	EmitRTTAll(sink, d.RTT)
	EmitHandoverAll(sink, d.Handovers)
	EmitTestAll(sink, d.Tests)
	EmitAppAll(sink, d.Apps)
	EmitPassiveAll(sink, d.Passive)
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

// Batch emits fan the same borrowed slice out through the helpers, so each
// member takes its fastest path (bulk when it implements BatchSink, the
// per-record loop otherwise) and none may mutate the records.
func (t tee) EmitThrAll(recs []ThroughputSample) {
	for _, k := range t {
		EmitThrAll(k, recs)
	}
}
func (t tee) EmitRTTAll(recs []RTTSample) {
	for _, k := range t {
		EmitRTTAll(k, recs)
	}
}
func (t tee) EmitHandoverAll(recs []HandoverRecord) {
	for _, k := range t {
		EmitHandoverAll(k, recs)
	}
}
func (t tee) EmitTestAll(recs []TestSummary) {
	for _, k := range t {
		EmitTestAll(k, recs)
	}
}
func (t tee) EmitAppAll(recs []AppRun) {
	for _, k := range t {
		EmitAppAll(k, recs)
	}
}
func (t tee) EmitPassiveAll(recs []PassiveSample) {
	for _, k := range t {
		EmitPassiveAll(k, recs)
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

// HashSink computes a SHA-256 fingerprint of the dataset's canonical CSV
// encoding without materializing any of it: each record is CSV-encoded
// through the byte codecs (bit-identical to the encoding Save writes) and
// fed to a per-table hash, and Sum combines the per-table digests (bound to
// their file names) into one hex string. Emitting a dataset into a HashSink
// therefore fingerprints exactly the bytes Save would write, table order
// and headers included.
type HashSink struct {
	h   [numTables]hash.Hash
	buf [numTables][]byte // rows accumulate here between hash writes
	enc rowEnc
}

// hashChunkBytes is how many encoded row bytes accumulate per table before
// they are folded into the hash. SHA-256 consumes input in 64-byte blocks,
// so the chunk size only amortizes call overhead — larger chunks keep the
// hash loop (SHA-NI on amd64) running over long contiguous buffers — and it
// never changes the digest.
const hashChunkBytes = 64 * 1024

// NewHashSink returns a HashSink with the table headers already hashed.
func NewHashSink() *HashSink {
	s := &HashSink{}
	for i := range s.h {
		s.h[i] = sha256.New()
		s.buf[i] = csvAppendRow(make([]byte, 0, hashChunkBytes+512), tableHeaders[i])
	}
	return s
}

// Reset rewinds the sink to its freshly-constructed state (headers hashed,
// nothing else), reusing the hash and buffer machinery. Fleet workers reset
// one HashSink per seed instead of allocating a new one.
func (s *HashSink) Reset() {
	for i := range s.h {
		s.h[i].Reset()
		s.buf[i] = csvAppendRow(s.buf[i][:0], tableHeaders[i])
	}
}

// fold feeds one chunk of encoded rows into the table's hash, under the
// "hash" pprof phase label when ProfilePhases is set. hash.Hash writes never
// fail. Folds happen once per hashChunkBytes of rows, so the label region
// overhead is amortized over ~64 KiB of hashing.
func (s *HashSink) fold(tab int, b []byte) {
	if !ProfilePhases {
		s.h[tab].Write(b)
		return
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "hash"), func(context.Context) {
		s.h[tab].Write(b)
	})
}

// sink folds the table's buffer into its hash once enough rows accumulated.
func (s *HashSink) sink(tab int) {
	if len(s.buf[tab]) >= hashChunkBytes {
		s.fold(tab, s.buf[tab])
		s.buf[tab] = s.buf[tab][:0]
	}
}

func (s *HashSink) EmitThr(r ThroughputSample) {
	s.buf[tabThr] = s.enc.csvAppendThr(s.buf[tabThr], r)
	s.sink(tabThr)
}
func (s *HashSink) EmitRTT(r RTTSample) {
	s.buf[tabRTT] = s.enc.csvAppendRTT(s.buf[tabRTT], r)
	s.sink(tabRTT)
}
func (s *HashSink) EmitHandover(h HandoverRecord) {
	s.buf[tabHO] = s.enc.csvAppendHO(s.buf[tabHO], h)
	s.sink(tabHO)
}
func (s *HashSink) EmitTest(t TestSummary) {
	s.buf[tabTests] = s.enc.csvAppendTest(s.buf[tabTests], t)
	s.sink(tabTests)
}
func (s *HashSink) EmitApp(a AppRun) {
	s.buf[tabApps] = s.enc.csvAppendApp(s.buf[tabApps], a)
	s.sink(tabApps)
}
func (s *HashSink) EmitPassive(p PassiveSample) {
	s.buf[tabPassive] = s.enc.csvAppendPassive(s.buf[tabPassive], p)
	s.sink(tabPassive)
}

// Batch emits encode the whole slice into the table buffer, folding full
// chunks as they fill — one virtual call per batch, and the fold check runs
// against a register-resident buffer instead of re-loading per record.
func (s *HashSink) EmitThrAll(recs []ThroughputSample) {
	b := s.buf[tabThr]
	for i := range recs {
		b = s.enc.csvAppendThr(b, recs[i])
		if len(b) >= hashChunkBytes {
			s.fold(tabThr, b)
			b = b[:0]
		}
	}
	s.buf[tabThr] = b
}
func (s *HashSink) EmitRTTAll(recs []RTTSample) {
	b := s.buf[tabRTT]
	for i := range recs {
		b = s.enc.csvAppendRTT(b, recs[i])
		if len(b) >= hashChunkBytes {
			s.fold(tabRTT, b)
			b = b[:0]
		}
	}
	s.buf[tabRTT] = b
}
func (s *HashSink) EmitHandoverAll(recs []HandoverRecord) {
	b := s.buf[tabHO]
	for i := range recs {
		b = s.enc.csvAppendHO(b, recs[i])
		if len(b) >= hashChunkBytes {
			s.fold(tabHO, b)
			b = b[:0]
		}
	}
	s.buf[tabHO] = b
}
func (s *HashSink) EmitTestAll(recs []TestSummary) {
	b := s.buf[tabTests]
	for i := range recs {
		b = s.enc.csvAppendTest(b, recs[i])
		if len(b) >= hashChunkBytes {
			s.fold(tabTests, b)
			b = b[:0]
		}
	}
	s.buf[tabTests] = b
}
func (s *HashSink) EmitAppAll(recs []AppRun) {
	b := s.buf[tabApps]
	for i := range recs {
		b = s.enc.csvAppendApp(b, recs[i])
		if len(b) >= hashChunkBytes {
			s.fold(tabApps, b)
			b = b[:0]
		}
	}
	s.buf[tabApps] = b
}
func (s *HashSink) EmitPassiveAll(recs []PassiveSample) {
	b := s.buf[tabPassive]
	for i := range recs {
		b = s.enc.csvAppendPassive(b, recs[i])
		if len(b) >= hashChunkBytes {
			s.fold(tabPassive, b)
			b = b[:0]
		}
	}
	s.buf[tabPassive] = b
}
func (s *HashSink) Flush() error {
	for i := range s.buf {
		if len(s.buf[i]) > 0 {
			s.fold(i, s.buf[i])
			s.buf[i] = s.buf[i][:0]
		}
	}
	return nil
}

// Sum returns the combined hex digest. It flushes internally, so it is
// valid with or without a prior Flush call.
func (s *HashSink) Sum() string {
	s.Flush()
	all := sha256.New()
	for i := range s.h {
		io.WriteString(all, tableNames[i])
		all.Write([]byte{0})
		all.Write(s.h[i].Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil))
}
