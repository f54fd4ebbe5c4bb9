package xcal

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wheels/internal/radio"
)

// Exporter writes the raw measurement files for tests as the real testbed
// produced them: one XCAL .drm file (EDT content timestamps, zone-less
// local filename) and one application log (local time, no zone indicator)
// per test. Rebuilding the consolidated dataset from these files is the
// job of the C2 synchronization software — see Rebuild.
type Exporter struct {
	Dir string
}

// appLogName builds the app log file name for a test.
func appLogName(op radio.Operator, test string, startUTC time.Time, offsetHours int) string {
	local := startUTC.In(time.FixedZone("local", offsetHours*3600))
	return fmt.Sprintf("app_%s_%s_%s.log", op.Short(), test, local.Format(fileLayout))
}

// ExportTest writes the raw file pair for one test. offsetHours is the
// phone's local UTC offset at the time of the test.
func (e *Exporter) ExportTest(op radio.Operator, test string, startUTC time.Time, offsetHours int,
	kpis []KPIEntry, signals []SignalEvent, app []AppEntry) error {
	if err := os.MkdirAll(e.Dir, 0o755); err != nil {
		return err
	}
	drmPath := filepath.Join(e.Dir, Filename(op, test, startUTC, offsetHours))
	f, err := os.Create(drmPath)
	if err != nil {
		return err
	}
	if err := WriteLog(f, &Log{Op: op, Test: test, KPIs: kpis, Signals: signals}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	appPath := filepath.Join(e.Dir, appLogName(op, test, startUTC, offsetHours))
	f, err = os.Create(appPath)
	if err != nil {
		return err
	}
	if err := WriteAppLog(f, app, AppLocalNoZone, offsetHours); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RebuiltTest is one test reconstructed from its raw files.
type RebuiltTest struct {
	Op      radio.Operator
	Test    string
	Rows    []MergedRow
	Signals []SignalEvent
	// Unmatched counts app samples with no KPI row within tolerance.
	Unmatched int
}

// Rebuild reconstructs every test in the directory from its raw file pair.
// It uses the supplied offset lookup (UTC offset in effect at a given
// instant — in the real pipeline this came from the GPS track; here the
// route provides it). This is the full C2 flow: parse the zone-less
// filenames, recover UTC, match app logs to .drm files, and join samples
// with KPI rows.
func Rebuild(dir string, offsetAt func(utc time.Time) int) ([]RebuiltTest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []RebuiltTest
	for _, ent := range entries {
		name := ent.Name()
		if filepath.Ext(name) != ".drm" {
			continue
		}
		op, test, localWall, err := ParseFilename(name)
		if err != nil {
			return nil, err
		}
		// The filename's wall time is zone-less: recover UTC by probing
		// candidate offsets and keeping the one consistent with the
		// supplied context. US offsets during the trip span -7..-4.
		var startUTC time.Time
		found := false
		for off := -7; off <= -4; off++ {
			cand := localWall.Add(-time.Duration(off) * time.Hour)
			if offsetAt(cand) == off {
				startUTC, found = cand, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("xcal: no consistent timezone for %s", name)
		}
		offset := offsetAt(startUTC)

		drmFile, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		log, err := ParseLog(drmFile)
		drmFile.Close()
		if err != nil {
			return nil, fmt.Errorf("xcal: %s: %v", name, err)
		}

		appName := appLogName(op, test, startUTC, offset)
		appFile, err := os.Open(filepath.Join(dir, appName))
		if err != nil {
			return nil, fmt.Errorf("xcal: missing app log for %s: %v", name, err)
		}
		app, err := ParseAppLog(appFile, AppLocalNoZone, offset)
		appFile.Close()
		if err != nil {
			return nil, fmt.Errorf("xcal: %s: %v", appName, err)
		}
		if len(app) > 0 {
			if err := MatchFile(app[0].TimeUTC, name, offset, 2*time.Minute); err != nil {
				return nil, err
			}
		}
		res := Sync(app, log.KPIs)
		out = append(out, RebuiltTest{
			Op: op, Test: test, Rows: res.Rows, Signals: log.Signals, Unmatched: res.Unmatched,
		})
	}
	return out, nil
}
