package analysis

import (
	"fmt"
	"strings"

	"wheels/internal/dataset"
	"wheels/internal/radio"
)

// Table2 holds the Pearson correlation coefficients between throughput and
// the five KPIs plus speed — Table 2 of the paper.
type Table2 struct {
	// R[op][dir][kpi] with kpi one of "RSRP", "MCS", "CA", "BLER",
	// "Speed", "HO".
	R map[radio.Operator]map[radio.Direction]map[string]float64
}

// Table2KPIs lists the correlated quantities in the paper's column order.
var Table2KPIs = []string{"RSRP", "MCS", "CA", "BLER", "Speed", "HO"}

// ComputeTable2 reduces the dataset to Table 2 using the driving
// throughput samples joined with their 500 ms KPI rows.
func ComputeTable2(ds *dataset.Dataset) Table2 {
	type key struct {
		op  radio.Operator
		dir radio.Direction
	}
	cols := map[key]map[string][]float64{}
	thr := map[key][]float64{}
	for _, s := range ds.Thr {
		if s.Static {
			continue
		}
		k := key{s.Op, s.Dir}
		if cols[k] == nil {
			cols[k] = map[string][]float64{}
		}
		thr[k] = append(thr[k], s.Mbps())
		cols[k]["RSRP"] = append(cols[k]["RSRP"], s.RSRPdBm)
		cols[k]["MCS"] = append(cols[k]["MCS"], float64(s.MCS))
		cols[k]["CA"] = append(cols[k]["CA"], float64(s.CC))
		cols[k]["BLER"] = append(cols[k]["BLER"], s.BLER)
		cols[k]["Speed"] = append(cols[k]["Speed"], s.MPH)
		cols[k]["HO"] = append(cols[k]["HO"], float64(s.HOs))
	}
	out := Table2{R: map[radio.Operator]map[radio.Direction]map[string]float64{}}
	for k, byKPI := range cols {
		if out.R[k.op] == nil {
			out.R[k.op] = map[radio.Direction]map[string]float64{}
		}
		out.R[k.op][k.dir] = map[string]float64{}
		for kpi, vals := range byKPI {
			out.R[k.op][k.dir][kpi] = Pearson(thr[k], vals)
		}
	}
	return out
}

// Render prints the table in the paper's layout.
func (t Table2) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: Pearson correlation of throughput with KPIs\n")
	b.WriteString("             ")
	for _, kpi := range Table2KPIs {
		fmt.Fprintf(&b, "%6s-DL %6s-UL ", kpi, kpi)
	}
	b.WriteString("\n")
	for _, op := range radio.Operators() {
		fmt.Fprintf(&b, "  %-9s", op)
		for _, kpi := range Table2KPIs {
			fmt.Fprintf(&b, " %8.2f %8.2f", t.R[op][radio.Downlink][kpi], t.R[op][radio.Uplink][kpi])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig9 is the longer-timescale view: CDFs of per-test means and of the
// per-test standard deviation as a fraction of the mean — Fig. 9.
type Fig9 struct {
	MeanThr map[radio.Operator]map[radio.Direction]CDF // Mbps
	StdThr  map[radio.Operator]map[radio.Direction]CDF // fraction of mean
	MeanRTT map[radio.Operator]CDF                     // ms
	StdRTT  map[radio.Operator]CDF
}

// ComputeFig9 reduces the dataset to Fig. 9 (driving tests only).
func ComputeFig9(ds *dataset.Dataset) Fig9 {
	meanThr := map[radio.Operator]map[radio.Direction][]float64{}
	stdThr := map[radio.Operator]map[radio.Direction][]float64{}
	meanRTT := map[radio.Operator][]float64{}
	stdRTT := map[radio.Operator][]float64{}
	for _, t := range ds.Tests {
		if t.Static {
			continue
		}
		switch t.Kind {
		case dataset.TestBulkDL, dataset.TestBulkUL:
			if meanThr[t.Op] == nil {
				meanThr[t.Op] = map[radio.Direction][]float64{}
				stdThr[t.Op] = map[radio.Direction][]float64{}
			}
			meanThr[t.Op][t.Dir] = append(meanThr[t.Op][t.Dir], t.MeanBps/1e6)
			stdThr[t.Op][t.Dir] = append(stdThr[t.Op][t.Dir], t.StdFracBps)
		case dataset.TestRTT:
			if t.MeanRTTms > 0 {
				meanRTT[t.Op] = append(meanRTT[t.Op], t.MeanRTTms)
				stdRTT[t.Op] = append(stdRTT[t.Op], t.StdFracRTT)
			}
		}
	}
	build := func(v map[radio.Operator]map[radio.Direction][]float64) map[radio.Operator]map[radio.Direction]CDF {
		out := map[radio.Operator]map[radio.Direction]CDF{}
		for op, byDir := range v {
			out[op] = map[radio.Direction]CDF{}
			for dir, vals := range byDir {
				out[op][dir] = NewCDF(vals)
			}
		}
		return out
	}
	buildOp := func(v map[radio.Operator][]float64) map[radio.Operator]CDF {
		out := map[radio.Operator]CDF{}
		for op, vals := range v {
			out[op] = NewCDF(vals)
		}
		return out
	}
	return Fig9{
		MeanThr: build(meanThr), StdThr: build(stdThr),
		MeanRTT: buildOp(meanRTT), StdRTT: buildOp(stdRTT),
	}
}

// Render prints the figure.
func (f Fig9) Render() string {
	var b strings.Builder
	b.WriteString("Fig 9: per-test (30 s / 20 s) statistics\n")
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			b.WriteString("  " + summarize(fmt.Sprintf("%s %s test-mean thr", op, dir), f.MeanThr[op][dir], "Mbps") + "\n")
			b.WriteString("  " + summarize(fmt.Sprintf("%s %s test-std frac", op, dir), f.StdThr[op][dir], "x mean") + "\n")
		}
		b.WriteString("  " + summarize(fmt.Sprintf("%s test-mean RTT", op), f.MeanRTT[op], "ms") + "\n")
	}
	return b.String()
}

// Fig10Bucket is one high-speed-5G-time bucket of Fig. 10.
type Fig10Bucket struct {
	N         int
	MedianThr float64 // Mbps (bulk tests)
	MedianRTT float64 // ms (rtt tests)
}

// Fig10 relates per-test performance to the fraction of test time spent on
// high-speed 5G — Fig. 10. Buckets are [0,25), [25,50), [50,75), [75,100].
type Fig10 struct {
	Thr map[radio.Operator]map[radio.Direction][4]Fig10Bucket
	RTT map[radio.Operator][4]Fig10Bucket
}

func bucketFor(frac float64) int {
	b := int(frac * 4)
	if b > 3 {
		b = 3
	}
	if b < 0 {
		b = 0
	}
	return b
}

// ComputeFig10 reduces the dataset to Fig. 10.
func ComputeFig10(ds *dataset.Dataset) Fig10 {
	thrVals := map[radio.Operator]map[radio.Direction][4][]float64{}
	rttVals := map[radio.Operator][4][]float64{}
	for _, t := range ds.Tests {
		if t.Static {
			continue
		}
		b := bucketFor(t.HighSpeedFrac)
		switch t.Kind {
		case dataset.TestBulkDL, dataset.TestBulkUL:
			if thrVals[t.Op] == nil {
				thrVals[t.Op] = map[radio.Direction][4][]float64{}
			}
			arr := thrVals[t.Op][t.Dir]
			arr[b] = append(arr[b], t.MeanBps/1e6)
			thrVals[t.Op][t.Dir] = arr
		case dataset.TestRTT:
			if t.MeanRTTms > 0 {
				arr := rttVals[t.Op]
				arr[b] = append(arr[b], t.MeanRTTms)
				rttVals[t.Op] = arr
			}
		}
	}
	out := Fig10{
		Thr: map[radio.Operator]map[radio.Direction][4]Fig10Bucket{},
		RTT: map[radio.Operator][4]Fig10Bucket{},
	}
	for op, byDir := range thrVals {
		out.Thr[op] = map[radio.Direction][4]Fig10Bucket{}
		for dir, arr := range byDir {
			var buckets [4]Fig10Bucket
			for i, vals := range arr {
				c := NewCDF(vals)
				buckets[i] = Fig10Bucket{N: c.N(), MedianThr: c.Median()}
			}
			out.Thr[op][dir] = buckets
		}
	}
	for op, arr := range rttVals {
		var buckets [4]Fig10Bucket
		for i, vals := range arr {
			c := NewCDF(vals)
			buckets[i] = Fig10Bucket{N: c.N(), MedianRTT: c.Median()}
		}
		out.RTT[op] = buckets
	}
	return out
}

// Render prints the figure.
func (f Fig10) Render() string {
	var b strings.Builder
	b.WriteString("Fig 10: per-test performance vs % time on high-speed 5G\n")
	labels := []string{"0-25%", "25-50%", "50-75%", "75-100%"}
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			fmt.Fprintf(&b, "  %-9s %s thr:", op, dir)
			for i, bu := range f.Thr[op][dir] {
				fmt.Fprintf(&b, " %s med=%.1f (n=%d)", labels[i], bu.MedianThr, bu.N)
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "  %-9s RTT:", op)
		for i, bu := range f.RTT[op] {
			fmt.Fprintf(&b, " %s med=%.0f (n=%d)", labels[i], bu.MedianRTT, bu.N)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// OoklaQ3_2022 holds the medians reported by Ookla SpeedTest for Q3 2022
// (Table 3's right-hand columns).
var OoklaQ3_2022 = map[radio.Operator]struct {
	DLMbps, ULMbps, RTTms float64
}{
	radio.Verizon: {58.64, 8.30, 59},
	radio.TMobile: {116.14, 10.91, 60},
	radio.ATT:     {57.94, 7.55, 61},
}

// Table3 compares the campaign's median per-test performance against the
// Ookla report — Table 3.
type Table3 struct {
	OurDL, OurUL, OurRTT map[radio.Operator]float64
}

// ComputeTable3 reduces the dataset to Table 3.
func ComputeTable3(ds *dataset.Dataset) Table3 {
	f9 := ComputeFig9(ds)
	out := Table3{
		OurDL:  map[radio.Operator]float64{},
		OurUL:  map[radio.Operator]float64{},
		OurRTT: map[radio.Operator]float64{},
	}
	for _, op := range radio.Operators() {
		out.OurDL[op] = f9.MeanThr[op][radio.Downlink].Median()
		out.OurUL[op] = f9.MeanThr[op][radio.Uplink].Median()
		out.OurRTT[op] = f9.MeanRTT[op].Median()
	}
	return out
}

// Render prints the table.
func (t Table3) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: comparison with Ookla Q3 2022 (medians)\n")
	b.WriteString("             DL ours / ookla     UL ours / ookla     RTT ours / ookla\n")
	for _, op := range radio.Operators() {
		o := OoklaQ3_2022[op]
		fmt.Fprintf(&b, "  %-9s %8.2f / %7.2f  %8.2f / %7.2f   %7.1f / %6.1f\n",
			op, t.OurDL[op], o.DLMbps, t.OurUL[op], o.ULMbps, t.OurRTT[op], o.RTTms)
	}
	return b.String()
}

// Table3X is the Table 3 extension: the same radio conditions measured
// with the paper's single-connection nuttcp methodology and with the
// commercial multi-connection peak-seeking methodology, demonstrating how
// much of the gap to the Ookla report is methodology rather than mobility.
type Table3X struct {
	NuttcpDL map[radio.Operator]float64 // median per-test mean, Mbps
	SpeedDL  map[radio.Operator]float64 // median per-test peak, Mbps
}

// ComputeTable3X reduces driving bulk-DL and speedtest summaries.
func ComputeTable3X(ds *dataset.Dataset) Table3X {
	nut := map[radio.Operator][]float64{}
	spd := map[radio.Operator][]float64{}
	for _, t := range ds.Tests {
		if t.Static {
			continue
		}
		switch t.Kind {
		case dataset.TestBulkDL:
			nut[t.Op] = append(nut[t.Op], t.MeanBps/1e6)
		case dataset.TestSpeed:
			spd[t.Op] = append(spd[t.Op], t.MeanBps/1e6)
		}
	}
	out := Table3X{NuttcpDL: map[radio.Operator]float64{}, SpeedDL: map[radio.Operator]float64{}}
	for _, op := range radio.Operators() {
		out.NuttcpDL[op] = NewCDF(nut[op]).Median()
		out.SpeedDL[op] = NewCDF(spd[op]).Median()
	}
	return out
}

// Render prints the extension table next to the Ookla medians.
func (t Table3X) Render() string {
	var b strings.Builder
	b.WriteString("Extension (Table 3): methodology gap on identical radio conditions\n")
	b.WriteString("             nuttcp 1-conn   8-conn peak    Ookla Q3'22\n")
	for _, op := range radio.Operators() {
		fmt.Fprintf(&b, "  %-9s %10.1f %14.1f %13.1f  Mbps\n",
			op, t.NuttcpDL[op], t.SpeedDL[op], OoklaQ3_2022[op].DLMbps)
	}
	b.WriteString("  (parallel peak-seeking connections recover much of the 'missing'\n")
	b.WriteString("   throughput — the Ookla gap is methodology as much as mobility)\n")
	return b.String()
}
