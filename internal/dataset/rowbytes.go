package dataset

import (
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Byte-level row codecs: the one CSV encoding of the dataset.
//
// Both byte sinks (ParallelCSVWriter, HashSink) encode through these
// csvAppend* codecs via the tableEnc front end, and the fleet's sinks run
// millions of rows through them: fields are formatted directly into a
// caller-owned byte buffer with strconv's Append* forms and joined with the
// exact quoting rules of encoding/csv, with no per-field string allocations.
//
// The byte stream is bit-identical to what csv.Writer (Comma=',',
// UseCRLF=false) produces for the same fields — the golden dataset hashes
// and the CSV exports depend on that. TestRowBytesMatchCSV pins the
// equivalence against an encoding/csv reference for every table, including
// fields that need quoting or escaping.

// quoteHalf is the float fields' fast path for exact halves below 10⁶:
// every row timestamp is a multiple of the 0.5 s tick, so this branch skips
// ryu for one float per row (and any other field that happens to land on an
// exact half). The emitted bytes must match AppendFloat('g', -1) exactly —
// the golden hashes ride on it: for v = I or I.5 with |v| < 10⁶ the shortest
// round-trip representation is the plain decimal (the value is exactly
// representable, and any shorter form parses to a different float), and 'g'
// only switches to e-notation at a decimal exponent ≥ 6, which the bound
// excludes. TestQuoteFMatchesAppendFloat sweeps every half in range plus the
// boundaries to pin the equality. ok=false means the value does not qualify
// and the caller must fall back to AppendFloat (or a bit-exact memo of it —
// see rowEnc.quoteF).
func quoteHalf(dst []byte, v float64) ([]byte, bool) {
	if h := v * 2; h == math.Trunc(h) && h != 0 {
		neg := false
		if h < 0 {
			neg, h = true, -h
		}
		if h < 2e6 {
			if neg {
				dst = append(dst, '-')
			}
			u := uint64(h)
			dst = strconv.AppendUint(dst, u>>1, 10)
			if u&1 == 1 {
				dst = append(dst, '.', '5')
			}
			return dst, true
		}
	}
	return dst, false
}

// quoteI and quoteB append one field. The formatted forms never contain a
// comma, quote, CR/LF, or leading space, so they skip the quoting scan.
func quoteI(dst []byte, v int) []byte  { return strconv.AppendInt(dst, int64(v), 10) }
func quoteB(dst []byte, v bool) []byte { return strconv.AppendBool(dst, v) }

// fieldNeedsQuotes mirrors encoding/csv.Writer.fieldNeedsQuotes for
// Comma=',': quote fields containing a comma, quote, or newline, fields
// starting with a space, and the Postgres data terminator `\.`.
func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		c := field[i]
		if c == '\n' || c == '\r' || c == '"' || c == ',' {
			return true
		}
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// quoteS appends one string field with encoding/csv's quoting and escaping
// (UseCRLF=false): quotes are doubled, CR and LF pass through verbatim
// inside the quoted field.
func quoteS(dst []byte, field string) []byte {
	if !fieldNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		c := field[i]
		if c == '"' {
			dst = append(dst, '"', '"')
			continue
		}
		dst = append(dst, c)
	}
	return append(dst, '"')
}

// csvAppendRow appends a generic []string record (used for the headers).
func csvAppendRow(dst []byte, rec []string) []byte {
	for i, f := range rec {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = quoteS(dst, f)
	}
	return append(dst, '\n')
}

func (e *rowEnc) csvAppendThr(dst []byte, s ThroughputSample) []byte {
	dst = quoteI(dst, s.TestID)
	dst = append(dst, ',')
	dst = quoteS(dst, s.Op.String())
	dst = append(dst, ',')
	dst = quoteS(dst, s.Dir.String())
	dst = append(dst, ',')
	dst = e.quoteT(dst, s.TimeUTC)
	dst = append(dst, ',')
	dst = e.quoteF(dst, s.Bps)
	dst = append(dst, ',')
	dst = quoteS(dst, s.Tech.String())
	dst = append(dst, ',')
	dst = e.quoteF(dst, s.RSRPdBm)
	dst = append(dst, ',')
	dst = e.quoteF(dst, s.SINRdB)
	dst = append(dst, ',')
	dst = quoteI(dst, s.MCS)
	dst = append(dst, ',')
	dst = e.quoteF(dst, s.BLER)
	dst = append(dst, ',')
	dst = quoteI(dst, s.CC)
	dst = append(dst, ',')
	dst = e.quoteF(dst, s.MPH)
	dst = append(dst, ',')
	dst = e.quoteF(dst, s.Km)
	dst = append(dst, ',')
	dst = quoteS(dst, s.Zone.String())
	dst = append(dst, ',')
	dst = quoteS(dst, s.Road.String())
	dst = append(dst, ',')
	dst = quoteS(dst, s.Server.String())
	dst = append(dst, ',')
	dst = quoteB(dst, s.Static)
	dst = append(dst, ',')
	dst = quoteI(dst, s.HOs)
	return append(dst, '\n')
}

func (e *rowEnc) csvAppendRTT(dst []byte, s RTTSample) []byte {
	dst = quoteI(dst, s.TestID)
	dst = append(dst, ',')
	dst = quoteS(dst, s.Op.String())
	dst = append(dst, ',')
	dst = e.quoteT(dst, s.TimeUTC)
	dst = append(dst, ',')
	dst = e.quoteF(dst, s.Ms)
	dst = append(dst, ',')
	dst = quoteS(dst, s.Tech.String())
	dst = append(dst, ',')
	dst = e.quoteF(dst, s.MPH)
	dst = append(dst, ',')
	dst = e.quoteF(dst, s.Km)
	dst = append(dst, ',')
	dst = quoteS(dst, s.Zone.String())
	dst = append(dst, ',')
	dst = quoteS(dst, s.Server.String())
	dst = append(dst, ',')
	dst = quoteB(dst, s.Static)
	return append(dst, '\n')
}

func (e *rowEnc) csvAppendHO(dst []byte, h HandoverRecord) []byte {
	dst = quoteI(dst, h.TestID)
	dst = append(dst, ',')
	dst = quoteS(dst, h.Op.String())
	dst = append(dst, ',')
	dst = e.quoteT(dst, h.TimeUTC)
	dst = append(dst, ',')
	dst = e.quoteF(dst, h.DurSec)
	dst = append(dst, ',')
	dst = quoteS(dst, h.FromTech.String())
	dst = append(dst, ',')
	dst = quoteS(dst, h.ToTech.String())
	dst = append(dst, ',')
	dst = quoteS(dst, h.FromCell)
	dst = append(dst, ',')
	dst = quoteS(dst, h.ToCell)
	dst = append(dst, ',')
	dst = quoteS(dst, h.Dir.String())
	return append(dst, '\n')
}

func (e *rowEnc) csvAppendTest(dst []byte, t TestSummary) []byte {
	dst = quoteI(dst, t.ID)
	dst = append(dst, ',')
	dst = quoteS(dst, t.Op.String())
	dst = append(dst, ',')
	dst = quoteS(dst, string(t.Kind))
	dst = append(dst, ',')
	dst = quoteS(dst, t.Dir.String())
	dst = append(dst, ',')
	dst = e.quoteT(dst, t.StartUTC)
	dst = append(dst, ',')
	dst = e.quoteF(dst, t.DurSec)
	dst = append(dst, ',')
	dst = quoteS(dst, t.Zone.String())
	dst = append(dst, ',')
	dst = quoteS(dst, t.Server.String())
	dst = append(dst, ',')
	dst = quoteB(dst, t.Static)
	dst = append(dst, ',')
	dst = e.quoteF(dst, t.MeanBps)
	dst = append(dst, ',')
	dst = e.quoteF(dst, t.StdFracBps)
	dst = append(dst, ',')
	dst = e.quoteF(dst, t.MeanRTTms)
	dst = append(dst, ',')
	dst = e.quoteF(dst, t.StdFracRTT)
	dst = append(dst, ',')
	dst = e.quoteF(dst, t.HighSpeedFrac)
	dst = append(dst, ',')
	dst = e.quoteF(dst, t.Miles)
	dst = append(dst, ',')
	dst = quoteI(dst, t.HOCount)
	dst = append(dst, ',')
	dst = e.quoteF(dst, t.RxBytes)
	dst = append(dst, ',')
	dst = e.quoteF(dst, t.TxBytes)
	return append(dst, '\n')
}

func (e *rowEnc) csvAppendApp(dst []byte, a AppRun) []byte {
	dst = quoteI(dst, a.ID)
	dst = append(dst, ',')
	dst = quoteS(dst, a.Op.String())
	dst = append(dst, ',')
	dst = quoteS(dst, string(a.App))
	dst = append(dst, ',')
	dst = e.quoteT(dst, a.StartUTC)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.DurSec)
	dst = append(dst, ',')
	dst = quoteS(dst, a.Server.String())
	dst = append(dst, ',')
	dst = quoteB(dst, a.Static)
	dst = append(dst, ',')
	dst = quoteB(dst, a.Compressed)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.HighSpeedFrac)
	dst = append(dst, ',')
	dst = quoteI(dst, a.HOCount)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.MedianE2EMs)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.OffloadFPS)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.MAP)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.QoE)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.RebufFrac)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.AvgBitrate)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.SendBitrate)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.NetLatencyMs)
	dst = append(dst, ',')
	dst = e.quoteF(dst, a.FrameDrop)
	return append(dst, '\n')
}

func (e *rowEnc) csvAppendPassive(dst []byte, p PassiveSample) []byte {
	dst = quoteS(dst, p.Op.String())
	dst = append(dst, ',')
	dst = e.quoteT(dst, p.TimeUTC)
	dst = append(dst, ',')
	dst = e.quoteF(dst, p.Km)
	dst = append(dst, ',')
	dst = quoteS(dst, p.Tech.String())
	dst = append(dst, ',')
	dst = quoteS(dst, p.Cell)
	dst = append(dst, ',')
	dst = quoteS(dst, p.Zone.String())
	dst = append(dst, ',')
	dst = quoteB(dst, p.NoSvc)
	return append(dst, '\n')
}
