package dataset

import (
	"compress/gzip"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
)

// The dataset serializes to one CSV file per record type, mirroring how the
// paper's public dataset is organized.
const (
	fileThr     = "throughput_samples.csv"
	fileRTT     = "rtt_samples.csv"
	fileHO      = "handovers.csv"
	fileTests   = "tests.csv"
	fileApps    = "app_runs.csv"
	filePassive = "passive_samples.csv"
)

const timeLayout = time.RFC3339Nano

// Table indices. Save, ParallelCSVWriter, and HashSink all iterate the
// tables in this canonical order and encode rows through the one tableEnc
// front end (sink.go) over the byte codecs of rowbytes.go, so "the CSV
// bytes of a record" has exactly one definition in the package.
const (
	tabThr = iota
	tabRTT
	tabHO
	tabTests
	tabApps
	tabPassive
	numTables
)

var tableNames = [numTables]string{fileThr, fileRTT, fileHO, fileTests, fileApps, filePassive}

var tableHeaders = [numTables][]string{
	tabThr: {"test_id", "op", "dir", "time_utc", "bps", "tech", "rsrp_dbm", "sinr_db",
		"mcs", "bler", "cc", "mph", "km", "zone", "road", "server", "static", "hos"},
	tabRTT: {"test_id", "op", "time_utc", "ms", "tech", "mph", "km", "zone", "server", "static"},
	tabHO:  {"test_id", "op", "time_utc", "dur_sec", "from_tech", "to_tech", "from_cell", "to_cell", "dir"},
	tabTests: {"id", "op", "kind", "dir", "start_utc", "dur_sec", "zone", "server", "static",
		"mean_bps", "std_frac_bps", "mean_rtt_ms", "std_frac_rtt", "high_speed_frac",
		"miles", "ho_count", "rx_bytes", "tx_bytes"},
	tabApps: {"id", "op", "app", "start_utc", "dur_sec", "server", "static", "compressed",
		"high_speed_frac", "ho_count", "median_e2e_ms", "offload_fps", "map", "qoe",
		"rebuf_frac", "avg_bitrate", "send_bitrate", "net_latency_ms", "frame_drop"},
	tabPassive: {"op", "time_utc", "km", "tech", "cell", "zone", "no_svc"},
}

type rowErr struct {
	file string
	line int
	err  error
}

func (e rowErr) Error() string { return fmt.Sprintf("%s:%d: %v", e.file, e.line, e.err) }

// parser accumulates the first conversion error so row-parsing code can
// stay linear.
type parser struct{ err error }

func (p *parser) f(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}
func (p *parser) i(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}
func (p *parser) b(s string) bool {
	v, err := strconv.ParseBool(s)
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}
func (p *parser) t(s string) time.Time {
	v, err := time.Parse(timeLayout, s)
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}

// s validates a free-form string field. CR/LF are rejected: encoding/csv
// normalizes \r\n to \n inside quoted fields on read, so accepting them
// would break the export→import→export byte round-trip.
func (p *parser) s(v string) string {
	if strings.ContainsAny(v, "\r\n") && p.err == nil {
		p.err = fmt.Errorf("control characters in string field %q", v)
	}
	return v
}
func (p *parser) op(s string) radio.Operator {
	for _, o := range radio.Operators() {
		if o.String() == s {
			return o
		}
	}
	if p.err == nil {
		p.err = fmt.Errorf("unknown operator %q", s)
	}
	return 0
}
func (p *parser) tech(s string) radio.Tech {
	for _, t := range radio.Techs() {
		if t.String() == s {
			return t
		}
	}
	if p.err == nil {
		p.err = fmt.Errorf("unknown technology %q", s)
	}
	return 0
}
func (p *parser) dir(s string) radio.Direction {
	if s == "UL" {
		return radio.Uplink
	}
	if s != "DL" && p.err == nil {
		p.err = fmt.Errorf("unknown direction %q", s)
	}
	return radio.Downlink
}
func (p *parser) kind(s string) servers.Kind {
	if s == "edge" {
		return servers.Edge
	}
	if s != "cloud" && p.err == nil {
		p.err = fmt.Errorf("unknown server kind %q", s)
	}
	return servers.Cloud
}
func (p *parser) zone(s string) geo.Timezone {
	for z := geo.Pacific; z <= geo.Eastern; z++ {
		if z.String() == s {
			return z
		}
	}
	if p.err == nil {
		p.err = fmt.Errorf("unknown timezone %q", s)
	}
	return geo.Pacific
}
func (p *parser) road(s string) geo.RoadClass {
	for _, r := range []geo.RoadClass{geo.RoadCity, geo.RoadSuburban, geo.RoadHighway} {
		if r.String() == s {
			return r
		}
	}
	if p.err == nil {
		p.err = fmt.Errorf("unknown road class %q", s)
	}
	return geo.RoadCity
}

func readCSV(in io.Reader, name string, wantCols int, row func(line int, rec []string) error) error {
	r := csv.NewReader(in)
	r.FieldsPerRecord = wantCols
	if _, err := r.Read(); err != nil { // header
		return rowErr{name, 1, err}
	}
	for line := 2; ; line++ {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return rowErr{name, line, err}
		}
		if err := row(line, rec); err != nil {
			return rowErr{name, line, err}
		}
	}
}

// Save writes the dataset as CSV files under dir, creating it if needed.
func (d *Dataset) Save(dir string) error {
	w, err := newPlainWriter(dir)
	if err != nil {
		return err
	}
	d.EmitTo(w)
	return w.Flush()
}

// plainWriter is Save's Sink: the six plain <table>.csv files, each piece
// written straight to its file. The first write error is latched; later
// pieces are dropped and Flush reports it.
type plainWriter struct {
	tableEnc
	files [numTables]*os.File
	err   error
}

func newPlainWriter(dir string) (*plainWriter, error) {
	files, err := createTables(dir, "")
	if err != nil {
		return nil, err
	}
	w := &plainWriter{files: files}
	w.chunkRows, w.hand = math.MaxInt, w.write
	for i := range w.buf {
		w.start(i, nil)
	}
	return w, nil
}

func (w *plainWriter) write(tab int, b []byte, _ bool) []byte {
	if w.err == nil {
		_, w.err = w.files[tab].Write(b)
	}
	return b[:0]
}

// Flush writes every partial piece and closes the files.
func (w *plainWriter) Flush() error {
	w.flush()
	for _, f := range w.files {
		if err := f.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// createTables creates dir if needed and the six table files in it, named
// by table with suffix appended. On error no file is left open.
func createTables(dir, suffix string) ([numTables]*os.File, error) {
	var files [numTables]*os.File
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return files, err
	}
	for i, name := range tableNames {
		f, err := os.Create(filepath.Join(dir, name+suffix))
		if err != nil {
			for _, g := range files[:i] {
				g.Close()
			}
			return files, err
		}
		files[i] = f
	}
	return files, nil
}

// Load reads a dataset written by Save or streamed by ParallelCSVWriter.
// Each table is read from <table>.csv when that file exists and from
// <table>.csv.gz otherwise.
func Load(dir string) (*Dataset, error) {
	table := func(name string, wantCols int, row func(line int, rec []string) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		gz := errors.Is(err, os.ErrNotExist)
		if gz {
			f, err = os.Open(path + ".gz")
		}
		if err != nil {
			return err
		}
		defer f.Close()
		var in io.Reader = f
		if gz {
			zr, err := gzip.NewReader(f)
			if err != nil {
				return fmt.Errorf("dataset: %s: %v", name, err)
			}
			in = zr
		}
		return readCSV(in, name, wantCols, row)
	}
	d := &Dataset{}
	err := table(fileThr, 18, func(_ int, r []string) error {
		var p parser
		s := ThroughputSample{
			TestID: p.i(r[0]), Op: p.op(r[1]), Dir: p.dir(r[2]), TimeUTC: p.t(r[3]), Bps: p.f(r[4]),
			Tech: p.tech(r[5]), RSRPdBm: p.f(r[6]), SINRdB: p.f(r[7]), MCS: p.i(r[8]), BLER: p.f(r[9]),
			CC: p.i(r[10]), MPH: p.f(r[11]), Km: p.f(r[12]), Zone: p.zone(r[13]), Road: p.road(r[14]),
			Server: p.kind(r[15]), Static: p.b(r[16]), HOs: p.i(r[17]),
		}
		d.Thr = append(d.Thr, s)
		return p.err
	})
	if err != nil {
		return nil, err
	}
	err = table(fileRTT, 10, func(_ int, r []string) error {
		var p parser
		s := RTTSample{
			TestID: p.i(r[0]), Op: p.op(r[1]), TimeUTC: p.t(r[2]), Ms: p.f(r[3]), Tech: p.tech(r[4]),
			MPH: p.f(r[5]), Km: p.f(r[6]), Zone: p.zone(r[7]), Server: p.kind(r[8]), Static: p.b(r[9]),
		}
		d.RTT = append(d.RTT, s)
		return p.err
	})
	if err != nil {
		return nil, err
	}
	err = table(fileHO, 9, func(_ int, r []string) error {
		var p parser
		h := HandoverRecord{
			TestID: p.i(r[0]), Op: p.op(r[1]), TimeUTC: p.t(r[2]), DurSec: p.f(r[3]),
			FromTech: p.tech(r[4]), ToTech: p.tech(r[5]), FromCell: p.s(r[6]), ToCell: p.s(r[7]), Dir: p.dir(r[8]),
		}
		d.Handovers = append(d.Handovers, h)
		return p.err
	})
	if err != nil {
		return nil, err
	}
	err = table(fileTests, 18, func(_ int, r []string) error {
		var p parser
		t := TestSummary{
			ID: p.i(r[0]), Op: p.op(r[1]), Kind: TestKind(p.s(r[2])), Dir: p.dir(r[3]), StartUTC: p.t(r[4]),
			DurSec: p.f(r[5]), Zone: p.zone(r[6]), Server: p.kind(r[7]), Static: p.b(r[8]),
			MeanBps: p.f(r[9]), StdFracBps: p.f(r[10]), MeanRTTms: p.f(r[11]), StdFracRTT: p.f(r[12]),
			HighSpeedFrac: p.f(r[13]), Miles: p.f(r[14]), HOCount: p.i(r[15]),
			RxBytes: p.f(r[16]), TxBytes: p.f(r[17]),
		}
		d.Tests = append(d.Tests, t)
		return p.err
	})
	if err != nil {
		return nil, err
	}
	err = table(fileApps, 19, func(_ int, r []string) error {
		var p parser
		a := AppRun{
			ID: p.i(r[0]), Op: p.op(r[1]), App: TestKind(p.s(r[2])), StartUTC: p.t(r[3]), DurSec: p.f(r[4]),
			Server: p.kind(r[5]), Static: p.b(r[6]), Compressed: p.b(r[7]), HighSpeedFrac: p.f(r[8]),
			HOCount: p.i(r[9]), MedianE2EMs: p.f(r[10]), OffloadFPS: p.f(r[11]), MAP: p.f(r[12]),
			QoE: p.f(r[13]), RebufFrac: p.f(r[14]), AvgBitrate: p.f(r[15]), SendBitrate: p.f(r[16]),
			NetLatencyMs: p.f(r[17]), FrameDrop: p.f(r[18]),
		}
		d.Apps = append(d.Apps, a)
		return p.err
	})
	if err != nil {
		return nil, err
	}
	err = table(filePassive, 7, func(_ int, r []string) error {
		var p parser
		s := PassiveSample{
			Op: p.op(r[0]), TimeUTC: p.t(r[1]), Km: p.f(r[2]), Tech: p.tech(r[3]), Cell: p.s(r[4]),
			Zone: p.zone(r[5]), NoSvc: p.b(r[6]),
		}
		d.Passive = append(d.Passive, s)
		return p.err
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}
