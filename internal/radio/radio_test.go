package radio

import (
	"math"
	"testing"
	"testing/quick"

	"wheels/internal/geo"
	"wheels/internal/sim"
)

// MeanRSRP returns the deterministic (pre-shadowing) RSRP in dBm at the
// given distance from the serving cell, computing the band invariants that
// Link precomputes on every call.
func MeanRSRP(b BandConfig, km float64, road geo.RoadClass, beamGainDB float64) float64 {
	return meanRSRPFrom(eirpDBm(b), beamGainDB, fsplDB(refDistKm, b.FreqGHz), km, road)
}

// Step advances the link by dt seconds with the UE at distKm from the cell,
// moving at mph over the given road class, and returns the full PHY
// snapshot: it is StepInto with NeedAll.
func (l *Link) Step(dt, distKm, mph float64, road geo.RoadClass) LinkState {
	var st LinkState
	l.StepInto(&st, dt, distKm, mph, road, NeedAll)
	return st
}

// PeakRateBps returns the theoretical peak PHY rate for the configuration in
// the given direction, before BLER, overhead, and load sharing.
func (b BandConfig) PeakRateBps(dir Direction) float64 {
	if dir == Downlink {
		return float64(b.MaxCCDown) * b.CarrierMHz * 1e6 * b.DutyDown * b.MaxSEDown
	}
	return float64(b.MaxCCUp) * b.CarrierMHz * 1e6 * b.DutyUp * b.MaxSEUp
}

func TestTechClassification(t *testing.T) {
	if LTE.Is5G() || LTEA.Is5G() {
		t.Error("4G technologies classified as 5G")
	}
	for _, tech := range []Tech{NRLow, NRMid, NRmmW} {
		if !tech.Is5G() {
			t.Errorf("%v not classified as 5G", tech)
		}
	}
	if NRLow.IsHighSpeed() {
		t.Error("5G-low classified as high-speed (paper counts only mid/mmWave)")
	}
	if !NRMid.IsHighSpeed() || !NRmmW.IsHighSpeed() {
		t.Error("mid/mmWave not classified as high-speed")
	}
}

func TestOperatorStrings(t *testing.T) {
	if Verizon.String() != "Verizon" || TMobile.Short() != "T" || ATT.Short() != "A" {
		t.Error("operator naming does not match the paper")
	}
	if len(Operators()) != NumOperators || len(Techs()) != NumTechs {
		t.Error("enumerations inconsistent with Num constants")
	}
}

func TestPeakRatesMatchHardware(t *testing.T) {
	// Appendix B: S21 peaks at up to 3.5 Gbps down / 350 Mbps up on mmWave.
	b := Bands(Verizon, NRmmW)
	dl := b.PeakRateBps(Downlink) / 1e9
	ul := b.PeakRateBps(Uplink) / 1e6
	if dl < 2.5 || dl > 3.6 {
		t.Errorf("mmWave peak DL = %.2f Gbps, want about 3", dl)
	}
	if ul < 300 || ul > 400 {
		t.Errorf("mmWave peak UL = %.0f Mbps, want about 350", ul)
	}
	// T-Mobile n41: static max 812 Mbps DL observed (Fig. 3a).
	tm := Bands(TMobile, NRMid)
	if dl := tm.PeakRateBps(Downlink) / 1e6; dl < 700 || dl > 900 {
		t.Errorf("T-Mobile mid-band peak DL = %.0f Mbps, want about 815", dl)
	}
	// T-Mobile mid-band beats Verizon's and AT&T's early C-band.
	if tm.PeakRateBps(Downlink) <= Bands(Verizon, NRMid).PeakRateBps(Downlink) {
		t.Error("T-Mobile mid-band peak does not exceed Verizon C-band")
	}
	if Bands(Verizon, NRMid).PeakRateBps(Downlink) < Bands(ATT, NRMid).PeakRateBps(Downlink) {
		t.Error("AT&T 40 MHz C-band should not exceed Verizon 60 MHz")
	}
}

func TestPathLossMonotonicity(t *testing.T) {
	if err := quick.Check(func(d1Raw, d2Raw uint16) bool {
		d1 := 0.05 + float64(d1Raw)/1000
		d2 := d1 + float64(d2Raw)/1000 + 0.001
		return PathLossDB(d2, 2.0, geo.RoadHighway) >= PathLossDB(d1, 2.0, geo.RoadHighway)
	}, nil); err != nil {
		t.Error(err)
	}
	// Higher frequency, higher loss.
	if PathLossDB(1, 28, geo.RoadCity) <= PathLossDB(1, 0.6, geo.RoadCity) {
		t.Error("28 GHz path loss not above 600 MHz")
	}
	// Urban clutter attenuates faster than highway terrain.
	if PathLossDB(2, 2, geo.RoadCity) <= PathLossDB(2, 2, geo.RoadHighway) {
		t.Error("city path loss not above highway at 2 km")
	}
}

func TestMeanRSRPWindow(t *testing.T) {
	for _, op := range Operators() {
		for _, tech := range Techs() {
			b := Bands(op, tech)
			near := MeanRSRP(b, 0.05, geo.RoadSuburban, BeamGainDB(op, tech))
			edge := MeanRSRP(b, b.RangeKm, geo.RoadSuburban, BeamGainDB(op, tech))
			// mmWave with Verizon's wide-beam offset sits lower (§5.5
			// reports -80 … -110 dBm), hence the wider floor.
			if near < -102 || near > -40 {
				t.Errorf("%v/%v near-cell RSRP = %.1f dBm, want realistic (-102, -40)", op, tech, near)
			}
			want := float64(edgeRSRPdBm)
			if tech == NRmmW {
				want = mmWaveEdgeRSRPdBm
			}
			if math.Abs(edge-(want+BeamGainDB(op, tech))) > 0.5 {
				t.Errorf("%v/%v edge RSRP = %.1f, want %v plus beam offset", op, tech, edge, want)
			}
			if near <= edge {
				t.Errorf("%v/%v RSRP not decreasing with distance", op, tech)
			}
		}
	}
}

func TestBeamGainMatchesPaper(t *testing.T) {
	// §5.5: Verizon's wider mmWave beams yield lower RSRP than AT&T's.
	if BeamGainDB(Verizon, NRmmW) >= BeamGainDB(ATT, NRmmW) {
		t.Error("Verizon mmWave beam gain not below AT&T")
	}
	if BeamGainDB(Verizon, LTE) != 0 {
		t.Error("beam gain applied to a non-mmWave band")
	}
}

func TestMCSMapping(t *testing.T) {
	if MCSForSINR(-20) != 0 {
		t.Error("very low SINR did not map to MCS 0")
	}
	if MCSForSINR(40) != MaxMCS {
		t.Error("very high SINR did not map to max MCS")
	}
	if err := quick.Check(func(s1, s2 int8) bool {
		a, b := float64(s1)/4, float64(s2)/4
		if a > b {
			a, b = b, a
		}
		return MCSForSINR(a) <= MCSForSINR(b)
	}, nil); err != nil {
		t.Error("MCS not monotone in SINR:", err)
	}
}

func TestEfficiencyTable(t *testing.T) {
	for i := 1; i <= MaxMCS; i++ {
		if mcsEfficiency[i] <= mcsEfficiency[i-1] {
			t.Fatalf("efficiency table not strictly increasing at MCS %d", i)
		}
	}
	if got := Efficiency(MaxMCS, 11); math.Abs(got-11) > 1e-9 {
		t.Errorf("top MCS efficiency = %v, want band max 11", got)
	}
	if Efficiency(-3, 5) != Efficiency(0, 5) || Efficiency(99, 5) != Efficiency(MaxMCS, 5) {
		t.Error("Efficiency does not clamp out-of-range MCS")
	}
}

func TestBLERBounds(t *testing.T) {
	if err := quick.Check(func(sinrRaw int8, mphRaw uint8) bool {
		b := BLER(float64(sinrRaw)/4, float64(mphRaw)/3)
		return b >= 0.01 && b <= 0.5
	}, nil); err != nil {
		t.Error(err)
	}
	// BLER grows as SINR falls and as speed rises.
	if BLER(-5, 0) <= BLER(20, 0) {
		t.Error("BLER not higher at low SINR")
	}
	if BLER(10, 80) <= BLER(10, 0) {
		t.Error("BLER not higher at high speed")
	}
}

func newTestLink(op Operator, tech Tech) *Link {
	return NewLink(sim.NewRNG(23).Stream("link", op.String(), tech.String()), op, tech)
}

func TestLinkStateSanity(t *testing.T) {
	for _, op := range Operators() {
		for _, tech := range Techs() {
			l := newTestLink(op, tech)
			for i := 0; i < 2000; i++ {
				st := l.Step(0.5, 0.3*l.Band.RangeKm, 65, geo.RoadHighway)
				if st.RSRPdBm > -55 || st.RSRPdBm < -160 {
					t.Fatalf("%v/%v RSRP out of range: %v", op, tech, st.RSRPdBm)
				}
				if st.SINRdB < sinrMinDB || st.SINRdB > sinrMaxDB {
					t.Fatalf("%v/%v SINR out of range: %v", op, tech, st.SINRdB)
				}
				if st.MCS < 0 || st.MCS > MaxMCS {
					t.Fatalf("%v/%v MCS out of range: %v", op, tech, st.MCS)
				}
				if st.CCDown < 1 || st.CCDown > l.Band.MaxCCDown {
					t.Fatalf("%v/%v CC down out of range: %v", op, tech, st.CCDown)
				}
				if st.CapDL < 0 || st.CapUL < 0 {
					t.Fatalf("%v/%v negative capacity", op, tech)
				}
				if st.CapDL > l.Band.PeakRateBps(Downlink)+anchorMHz*1e6*7 {
					t.Fatalf("%v/%v DL capacity %v exceeds peak", op, tech, st.CapDL)
				}
			}
		}
	}
}

func TestLinkCapacityFallsWithDistance(t *testing.T) {
	for _, tech := range []Tech{LTE, NRMid} {
		meanAt := func(dist float64) float64 {
			l := newTestLink(TMobile, tech)
			var sum float64
			const n = 4000
			for i := 0; i < n; i++ {
				sum += l.Step(0.5, dist, 40, geo.RoadSuburban).CapDL
			}
			return sum / n
		}
		near := meanAt(0.15 * Bands(TMobile, tech).RangeKm)
		far := meanAt(1.05 * Bands(TMobile, tech).RangeKm)
		if near <= far {
			t.Errorf("%v: mean capacity near (%.0f) not above edge (%.0f)", tech, near/1e6, far/1e6)
		}
	}
}

func TestMmWaveBlockageDynamics(t *testing.T) {
	l := newTestLink(Verizon, NRmmW)
	blocked := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if l.Step(0.5, 0.1, 10, geo.RoadCity).Blocked {
			blocked++
		}
	}
	frac := float64(blocked) / n
	// Blockage should occur a meaningful but minority fraction of the time.
	if frac < 0.05 || frac > 0.45 {
		t.Errorf("mmWave blocked fraction = %.3f, want (0.05, 0.45)", frac)
	}
	// Sub-6 deep fades are much rarer.
	lte := newTestLink(Verizon, LTE)
	blocked = 0
	for i := 0; i < n; i++ {
		if lte.Step(0.5, 1, 10, geo.RoadCity).Blocked {
			blocked++
		}
	}
	if lfrac := float64(blocked) / n; lfrac >= frac/2 {
		t.Errorf("LTE deep-fade fraction %.3f not well below mmWave %.3f", lfrac, frac)
	}
}

func TestVerizonNoUplinkCA(t *testing.T) {
	l := newTestLink(Verizon, LTEA)
	for i := 0; i < 1000; i++ {
		if st := l.Step(0.5, 0.2, 30, geo.RoadCity); st.CCUp != 1 {
			t.Fatal("Verizon aggregated uplink carriers; §5.5 says it rarely does")
		}
	}
}

func TestTMobileMidbandUplinkAnchor(t *testing.T) {
	l := newTestLink(TMobile, NRMid)
	two := 0
	for i := 0; i < 1000; i++ {
		if st := l.Step(0.5, 0.3, 30, geo.RoadCity); st.CCUp == 2 {
			two++
		}
	}
	if two < 900 {
		t.Errorf("T-Mobile mid-band used 2 UL carriers only %d/1000 steps; §5.5 says often", two)
	}
}

func TestLinkDeterminism(t *testing.T) {
	a := newTestLink(ATT, NRMid)
	b := newTestLink(ATT, NRMid)
	for i := 0; i < 500; i++ {
		sa := a.Step(0.5, 0.8, 50, geo.RoadHighway)
		sb := b.Step(0.5, 0.8, 50, geo.RoadHighway)
		if sa != sb {
			t.Fatalf("identical links diverged at step %d", i)
		}
	}
}
