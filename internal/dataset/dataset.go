// Package dataset defines the consolidated cross-layer dataset the campaign
// produces — the analogue of the paper's XCAP-M-merged database (§3, C2):
// 500 ms throughput samples joined with PHY KPIs, individual RTT samples,
// handover records, per-test summaries, application QoE runs, and the
// passive handover-logger trace. Package analysis consumes these records to
// regenerate every figure and table.
package dataset

import (
	"time"

	"wheels/internal/geo"
	"wheels/internal/radio"
	"wheels/internal/servers"
)

// TestKind is the type of measurement a record came from.
type TestKind string

const (
	TestBulkDL TestKind = "bulk-dl"
	TestBulkUL TestKind = "bulk-ul"
	TestRTT    TestKind = "rtt"
	TestAR     TestKind = "ar"
	TestCAV    TestKind = "cav"
	TestVideo  TestKind = "video"
	TestGaming TestKind = "gaming"
	// TestSpeed is the extension: a commercial-style multi-connection
	// speed test (Table 3's comparison methodology).
	TestSpeed TestKind = "speedtest"
)

// ThroughputSample is one 500 ms application-layer throughput sample with
// the synchronized lower-layer KPIs — the unit of analysis for Figs. 3–7
// and Table 2.
type ThroughputSample struct {
	TestID  int
	Op      radio.Operator
	Dir     radio.Direction
	TimeUTC time.Time
	Bps     float64

	Tech    radio.Tech
	RSRPdBm float64
	SINRdB  float64
	MCS     int
	BLER    float64
	CC      int // component carriers in the transfer direction

	MPH    float64
	Km     float64
	Zone   geo.Timezone
	Road   geo.RoadClass
	Server servers.Kind
	Static bool
	HOs    int // handovers completed within this 500 ms interval
}

// Mbps returns the sample in Mbps.
func (s ThroughputSample) Mbps() float64 { return s.Bps / 1e6 }

// RTTSample is one ICMP echo measurement.
type RTTSample struct {
	TestID  int
	Op      radio.Operator
	TimeUTC time.Time
	Ms      float64
	Tech    radio.Tech
	MPH     float64
	Km      float64
	Zone    geo.Timezone
	Server  servers.Kind
	Static  bool
}

// HandoverRecord is one handover with its control-plane interruption.
type HandoverRecord struct {
	TestID   int
	Op       radio.Operator
	TimeUTC  time.Time
	DurSec   float64
	FromTech radio.Tech
	ToTech   radio.Tech
	FromCell string
	ToCell   string
	Dir      radio.Direction
}

// Kind returns the Fig. 12 classification (4G->4G, 4G->5G, 5G->4G, 5G->5G).
func (h HandoverRecord) Kind() string {
	g := func(t radio.Tech) string {
		if t.Is5G() {
			return "5G"
		}
		return "4G"
	}
	return g(h.FromTech) + "->" + g(h.ToTech)
}

// TestSummary is the per-test aggregate used by Figs. 9–10 and Table 3.
type TestSummary struct {
	ID       int
	Op       radio.Operator
	Kind     TestKind
	Dir      radio.Direction
	StartUTC time.Time
	DurSec   float64
	Zone     geo.Timezone
	Server   servers.Kind
	Static   bool

	MeanBps       float64
	StdFracBps    float64 // std of 500 ms samples / mean
	MeanRTTms     float64
	StdFracRTT    float64
	HighSpeedFrac float64 // fraction of test time on 5G mid/mmWave
	Miles         float64
	HOCount       int
	RxBytes       float64
	TxBytes       float64
}

// AppRun is the per-run QoE record for the four 5G "killer" apps (§7).
type AppRun struct {
	ID       int
	Op       radio.Operator
	App      TestKind // TestAR, TestCAV, TestVideo, TestGaming
	StartUTC time.Time
	DurSec   float64
	Server   servers.Kind
	Static   bool

	Compressed    bool // AR/CAV: frame compression enabled
	HighSpeedFrac float64
	HOCount       int

	// AR/CAV metrics (Figs. 13, 14).
	MedianE2EMs float64
	OffloadFPS  float64
	MAP         float64 // AR only: object detection accuracy

	// 360° video metrics (Fig. 15).
	QoE        float64
	RebufFrac  float64
	AvgBitrate float64 // Mbps

	// Cloud gaming metrics (Fig. 16).
	SendBitrate  float64 // Mbps
	NetLatencyMs float64
	FrameDrop    float64 // fraction
}

// PassiveSample is one handover-logger observation: the technology an idle
// (ping-only) UE reports, logged continuously along the whole trip (§3).
type PassiveSample struct {
	Op      radio.Operator
	TimeUTC time.Time
	Km      float64
	Tech    radio.Tech
	Cell    string
	Zone    geo.Timezone
	NoSvc   bool
}

// Dataset is the consolidated campaign database.
type Dataset struct {
	Seed      int64
	Thr       []ThroughputSample
	RTT       []RTTSample
	Handovers []HandoverRecord
	Tests     []TestSummary
	Apps      []AppRun
	Passive   []PassiveSample
}
