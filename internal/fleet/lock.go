package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// Checkpoint locking: two fleets appending to the same JSONL checkpoint
// would interleave writes and corrupt both runs' resume state, so Run takes
// an exclusive advisory lock — a sibling "<checkpoint>.lock" file created
// with O_CREAT|O_EXCL, which is atomic on every filesystem Go targets — for
// the whole fleet and releases it on return. The lock file records who holds
// it; a lock whose holder is a dead process on this host is stale and is
// broken automatically, so a crashed fleet never wedges the checkpoint.

// lockInfo is the JSON body of a lock file.
type lockInfo struct {
	PID     int       `json:"pid"`
	Host    string    `json:"host"`
	Started time.Time `json:"started"`
}

// checkpointLock is a held lock; Release removes the lock file.
type checkpointLock struct{ path string }

// lockPath returns the lock file guarding a checkpoint path.
func lockPath(ckpt string) string { return ckpt + ".lock" }

// acquireCheckpointLock takes the exclusive lock for ckpt, breaking a stale
// one (dead holder on this host) at most once. A live holder is a fast,
// descriptive failure — the caller must not touch the checkpoint.
func acquireCheckpointLock(ckpt string) (*checkpointLock, error) {
	path := lockPath(ckpt)
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			host, _ := os.Hostname()
			info := lockInfo{PID: os.Getpid(), Host: host, Started: time.Now().UTC()}
			enc := json.NewEncoder(f)
			if werr := enc.Encode(info); werr != nil {
				f.Close()
				os.Remove(path)
				return nil, fmt.Errorf("writing checkpoint lock %s: %w", path, werr)
			}
			if cerr := f.Close(); cerr != nil {
				os.Remove(path)
				return nil, fmt.Errorf("writing checkpoint lock %s: %w", path, cerr)
			}
			return &checkpointLock{path: path}, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("creating checkpoint lock %s: %w", path, err)
		}
		info, stale := readLock(path)
		if stale && attempt == 0 {
			// Break the stale lock and retry the exclusive create once; a
			// concurrent breaker losing the race lands back in ErrExist.
			os.Remove(path)
			continue
		}
		return nil, fmt.Errorf(
			"checkpoint %s is locked by another fleet run (pid %d on %q since %s); "+
				"remove %s if that run is gone",
			ckpt, info.PID, info.Host, info.Started.Format(time.RFC3339), path)
	}
}

// readLock decodes a lock file and reports whether it is stale: held by a
// process on this host that no longer exists or is a zombie, or
// unreadable/empty (a crash between create and write). A lock from another
// host is never stale — PID liveness cannot be checked remotely.
func readLock(path string) (lockInfo, bool) {
	var info lockInfo
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 || json.Unmarshal(data, &info) != nil {
		return info, true
	}
	host, _ := os.Hostname()
	if info.Host != host {
		return info, false
	}
	if zombie(info.PID) {
		return info, true
	}
	proc, err := os.FindProcess(info.PID)
	if err != nil {
		return info, true
	}
	// Signal 0 probes existence without delivering anything; EPERM means
	// the process exists under another user, so only "done"/ESRCH is stale.
	sigErr := proc.Signal(syscall.Signal(0))
	return info, errors.Is(sigErr, os.ErrProcessDone) || errors.Is(sigErr, syscall.ESRCH)
}

// zombie reports whether pid has exited but is not yet reaped by its parent,
// which signal 0 cannot tell from a live process. It reads the state field of
// /proc/<pid>/stat, the byte after the ") " that closes the command name;
// where that file is missing (the process is gone, or off Linux) it reports
// false and the signal probe decides.
func zombie(pid int) bool {
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(stat, ')')
	return i >= 0 && bytes.HasPrefix(stat[i+1:], []byte(" Z"))
}

// Release removes the lock file. Safe to call once per acquired lock.
func (l *checkpointLock) Release() error { return os.Remove(l.path) }
