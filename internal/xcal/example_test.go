package xcal_test

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"wheels/internal/radio"
	"wheels/internal/xcal"
)

// The C2 log-synchronization pipeline end to end: an XCAL .drm log whose
// file name carries an unlabeled local timestamp, and an application log in
// the phone's local time with no zone indicator, are parsed back, matched
// by the route's timezone context and joined into consolidated rows. The
// scenario is a 30 s downlink test in Denver (Mountain time, UTC-6) on
// 2022-08-10 starting 11:30:15 local. Interpreting the local timestamps
// with the wrong timezone shifts everything by two hours, and the match is
// refused.
func Example_mergeLogs() {
	const offsetHours = -6
	start := time.Date(2022, 8, 10, 17, 30, 15, 0, time.UTC)

	// 1. The XCAL Solo writes its .drm log.
	drm := &xcal.Log{Op: radio.Verizon, Test: "bulk-dl"}
	for i := 0; i < 6; i++ {
		drm.KPIs = append(drm.KPIs, xcal.KPIEntry{
			TimeUTC: start.Add(time.Duration(i) * 500 * time.Millisecond), Tech: radio.NRMid,
			RSRPdBm: -98 - float64(i), SINRdB: 14 - float64(i), MCS: 20 - i, BLER: 0.08, CCDown: 2, CCUp: 1, MPH: 63,
		})
	}
	drm.Signals = append(drm.Signals, xcal.SignalEvent{
		TimeUTC: start.Add(1200 * time.Millisecond), FromTech: radio.NRMid, ToTech: radio.LTEA,
		FromCell: "V-5G-mid-118", ToCell: "V-LTE-A-67", DurMs: 53,
	})
	drmName := xcal.Filename(radio.Verizon, "bulk-dl", start, offsetHours)
	var drmFile bytes.Buffer
	if err := xcal.WriteLog(&drmFile, drm); err != nil {
		log.Fatal(err)
	}

	// 2. The throughput app logs its 500 ms samples in local time.
	var entries []xcal.AppEntry
	for i := 0; i < 6; i++ {
		entries = append(entries, xcal.AppEntry{
			TimeUTC: start.Add(time.Duration(i)*500*time.Millisecond + 40*time.Millisecond),
			Value:   float64(30+5*i) * 1e6,
		})
	}
	var appFile bytes.Buffer
	if err := xcal.WriteAppLog(&appFile, entries, xcal.AppLocalNoZone, offsetHours); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw logs:\n  %s\n  app_throughput_dl.log\n\n", drmName)

	// 3. Post-processing: parse both logs, reconstruct UTC, match, join.
	app, err := xcal.ParseAppLog(&appFile, xcal.AppLocalNoZone, offsetHours)
	if err != nil {
		log.Fatal(err)
	}
	if err := xcal.MatchFile(app[0].TimeUTC, drmName, offsetHours, 2*time.Minute); err != nil {
		log.Fatalf("file matching: %v", err)
	}
	parsed, err := xcal.ParseLog(&drmFile)
	if err != nil {
		log.Fatal(err)
	}
	res := xcal.Sync(app, parsed.KPIs)
	fmt.Printf("synchronized %d/%d app samples with XCAL KPI rows (%d unmatched):\n",
		len(res.Rows), len(app), res.Unmatched)
	for _, r := range res.Rows {
		fmt.Printf("  %s  %6.1f Mbps  %-8s RSRP=%6.1f MCS=%2d CA=%d\n",
			r.TimeUTC.Format("15:04:05.000"), r.AppValue/1e6, r.KPI.Tech, r.KPI.RSRPdBm, r.KPI.MCS, r.KPI.CCDown)
	}

	// 4. The failure mode the C2 software guards against: Eastern instead
	// of Mountain time.
	fmt.Println("\nwith the WRONG timezone context (-4 instead of -6):")
	if err := xcal.MatchFile(app[0].TimeUTC, drmName, -4, 2*time.Minute); err != nil {
		fmt.Printf("  detected: %v\n", err)
	} else {
		fmt.Println("  wrong-timezone match unexpectedly succeeded")
	}
	// Output:
	// raw logs:
	//   XCAL_V_bulk-dl_20220810_113015.drm
	//   app_throughput_dl.log
	//
	// synchronized 6/6 app samples with XCAL KPI rows (0 unmatched):
	//   17:30:15.040    30.0 Mbps  5G-mid   RSRP= -98.0 MCS=20 CA=2
	//   17:30:15.540    35.0 Mbps  5G-mid   RSRP= -99.0 MCS=19 CA=2
	//   17:30:16.040    40.0 Mbps  5G-mid   RSRP=-100.0 MCS=18 CA=2
	//   17:30:16.540    45.0 Mbps  5G-mid   RSRP=-101.0 MCS=17 CA=2
	//   17:30:17.040    50.0 Mbps  5G-mid   RSRP=-102.0 MCS=16 CA=2
	//   17:30:17.540    55.0 Mbps  5G-mid   RSRP=-103.0 MCS=15 CA=2
	//
	// with the WRONG timezone context (-4 instead of -6):
	//   detected: xcal: XCAL_V_bulk-dl_20220810_113015.drm starts 2h0m0.04s away from app log (offset -4h); wrong file or wrong timezone
}
