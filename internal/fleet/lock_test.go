package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCheckpointLockExcludesSecondRun: while one fleet holds the checkpoint
// lock, a second Run against the same checkpoint fails fast with an error
// naming the holder, without touching the checkpoint.
func TestCheckpointLockExcludesSecondRun(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "fleet.jsonl")
	lock, err := acquireCheckpointLock(ck)
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Release()

	cfg := testConfig(ck)
	_, err = Run(cfg)
	if err == nil {
		t.Fatal("second fleet run acquired a held checkpoint lock")
	}
	msg := err.Error()
	if !strings.Contains(msg, "locked by another fleet run") {
		t.Errorf("error does not explain the lock: %v", err)
	}
	if !strings.Contains(msg, lockPath(ck)) {
		t.Errorf("error does not name the lock file to remove: %v", err)
	}
	if _, statErr := os.Stat(ck); !os.IsNotExist(statErr) {
		t.Error("excluded run created or touched the checkpoint file")
	}
}

// TestCheckpointLockBreaksStale: a lock left by a dead process on this host
// is broken automatically and the fleet proceeds.
func TestCheckpointLockBreaksStale(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "fleet.jsonl")
	host, _ := os.Hostname()
	// Start a process that exits immediately and use its PID: guaranteed
	// dead, guaranteed to have existed. Our own PID after fork would race;
	// a fixed huge PID could exist on a long-lived host.
	dead := deadPID(t)
	writeLockFile(t, lockPath(ck), lockInfo{PID: dead, Host: host, Started: time.Now().UTC()})

	cfg := testConfig(ck)
	cfg.Seeds = 1
	if _, err := Run(cfg); err != nil {
		t.Fatalf("fleet did not break a stale lock: %v", err)
	}
	if _, err := os.Stat(lockPath(ck)); !os.IsNotExist(err) {
		t.Error("lock file survived the run")
	}
}

// TestCheckpointLockRemoteHostNotStale: a lock from another host is never
// broken — liveness cannot be probed remotely.
func TestCheckpointLockRemoteHostNotStale(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "fleet.jsonl")
	writeLockFile(t, lockPath(ck), lockInfo{PID: 1, Host: "some-other-host", Started: time.Now().UTC()})
	if _, err := Run(testConfig(ck)); err == nil {
		t.Fatal("fleet broke another host's lock")
	}
}

// TestCheckpointLockEmptyFileIsStale: an empty lock file — a crash between
// create and write — does not wedge the checkpoint.
func TestCheckpointLockEmptyFileIsStale(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "fleet.jsonl")
	if err := os.WriteFile(lockPath(ck), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(ck)
	cfg.Seeds = 1
	if _, err := Run(cfg); err != nil {
		t.Fatalf("fleet did not break an empty lock file: %v", err)
	}
}

// TestCheckpointLockBreaksZombie: a holder that was killed but not yet
// reaped still answers signal 0, yet its lock is stale and is broken.
func TestCheckpointLockBreaksZombie(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("zombie detection reads /proc/<pid>/stat")
	}
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skipf("no sleep binary: %v", err)
	}
	p, err := os.StartProcess(sleep, []string{"sleep", "60"}, &os.ProcAttr{})
	if err != nil {
		t.Skipf("cannot spawn helper process: %v", err)
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	// The kernel turns the killed child into a zombie asynchronously; wait
	// for that state before naming it in a lock.
	stat := fmt.Sprintf("/proc/%d/stat", p.Pid)
	for deadline := time.Now().Add(5 * time.Second); ; {
		b, err := os.ReadFile(stat)
		if err != nil {
			t.Fatalf("reading %s: %v", stat, err)
		}
		if i := bytes.LastIndexByte(b, ')'); i >= 0 && bytes.HasPrefix(b[i+1:], []byte(" Z")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed child never became a zombie: %s", b)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ck := filepath.Join(t.TempDir(), "fleet.jsonl")
	host, _ := os.Hostname()
	writeLockFile(t, lockPath(ck), lockInfo{PID: p.Pid, Host: host, Started: time.Now().UTC()})
	lock, err := acquireCheckpointLock(ck)
	if err != nil {
		t.Errorf("lock held by a zombie was not broken: %v", err)
	} else if err := lock.Release(); err != nil {
		t.Error(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func writeLockFile(t *testing.T, path string, info lockInfo) {
	t.Helper()
	b, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// deadPID returns the PID of a process that has already been reaped.
func deadPID(t *testing.T) int {
	t.Helper()
	p, err := os.StartProcess("/bin/true", []string{"true"}, &os.ProcAttr{})
	if err != nil {
		t.Skipf("cannot spawn helper process: %v", err)
	}
	pid := p.Pid
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	return pid
}
