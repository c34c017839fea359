package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/moldable"
	"bicriteria/internal/validate"
)

// snapshotFile is the on-disk checkpoint of a running service: the
// accepted stream (tasks with their virtual release stamps), the virtual
// clock and the admission counters. It is a periodic checkpoint, not a
// write-ahead log: submissions admitted after the last write are lost on
// a crash (a graceful drain always writes a final, complete snapshot).
type snapshotFile struct {
	// Version of the format, currently 1.
	Version int `json:"version"`
	// VirtualNow is the virtual clock at the time of the snapshot; a
	// restored server resumes its pacer from it.
	VirtualNow float64 `json:"virtual_now"`
	// Drained records whether the snapshot is the final one of a drain.
	Drained  bool          `json:"drained"`
	Counters Counters      `json:"counters"`
	Jobs     []snapshotJob `json:"jobs"`
}

type snapshotJob struct {
	ID      int       `json:"id"`
	Name    string    `json:"name,omitempty"`
	Weight  float64   `json:"weight"`
	Times   []float64 `json:"times"`
	Release float64   `json:"release"`
}

const snapshotVersion = 1

// writeSnapshot checkpoints the current state to cfg.SnapshotPath,
// atomically (write to a temp file in the same directory, then rename).
func (s *Server) writeSnapshot() error {
	start := time.Now()
	// The stream, the counters and the clock are read as one, so the
	// counters and the virtual clock match the checkpointed jobs.
	s.mu.Lock()
	snap := snapshotFile{
		Version:    snapshotVersion,
		VirtualNow: s.pacer.now(),
		Counters:   s.counters,
		Jobs:       make([]snapshotJob, len(s.stream)),
	}
	for i, j := range s.stream {
		snap.Jobs[i] = snapshotJob{
			ID: j.Task.ID, Name: j.Task.Name, Weight: j.Task.Weight,
			Times: j.Task.Times, Release: j.Release,
		}
	}
	s.mu.Unlock()
	s.liveMu.RLock()
	snap.Drained = s.final != nil
	s.liveMu.RUnlock()

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.cfg.SnapshotPath)
	tmp, err := os.CreateTemp(dir, ".serve-snapshot-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.cfg.SnapshotPath); err != nil {
		return err
	}
	s.liveMu.Lock()
	s.lastSnapshot = s.pacer.wall()
	s.liveMu.Unlock()
	s.snapshotSeconds.Observe(time.Since(start).Seconds())
	s.logger.Debug("snapshot written", "path", s.cfg.SnapshotPath, "jobs", len(snap.Jobs))
	return nil
}

// restoreSnapshot loads a checkpoint if one exists at path, rebuilding the
// stream, the registry and the admission backlog clock, and returns the
// virtual-clock offset the pacer should resume from. A missing file is a
// fresh start, not an error. Called before the background loops start, so
// no locking is needed.
func (s *Server) restoreSnapshot(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("serve: cannot decode snapshot %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("serve: unsupported snapshot version %d (want %d)", snap.Version, snapshotVersion)
	}
	// The pacer resumes from the clock: a negative one would stamp
	// negative releases, which no replay accepts.
	if snap.VirtualNow < 0 || math.IsNaN(snap.VirtualNow) || math.IsInf(snap.VirtualNow, 0) {
		return 0, validate.Errorf("snapshot.virtual_now", "%s: virtual clock must be non-negative and finite, got %g", path, snap.VirtualNow)
	}
	// The rejection counters resume from the file; /metrics.prom never
	// lowers a counter, so a negative one would disagree with /metrics.
	if c := snap.Counters.RejectedRate; c < 0 {
		return 0, validate.Errorf("snapshot.counters.rejected_rate_limit", "%s: counter must be non-negative, got %d", path, c)
	}
	if c := snap.Counters.RejectedBacklog; c < 0 {
		return 0, validate.Errorf("snapshot.counters.rejected_backlog", "%s: counter must be non-negative, got %d", path, c)
	}
	for i, sj := range snap.Jobs {
		task := moldable.Task{ID: sj.ID, Name: sj.Name, Weight: sj.Weight, Times: sj.Times}
		if err := task.Validate(); err != nil {
			return 0, fmt.Errorf("serve: snapshot job %d: %w", i, err)
		}
		if sj.Release < 0 || sj.Release > snap.VirtualNow {
			return 0, fmt.Errorf("serve: snapshot job %d has release %g outside [0, %g]", i, sj.Release, snap.VirtualNow)
		}
		if s.reg.has(task.ID) {
			return 0, fmt.Errorf("serve: snapshot has duplicate job ID %d", task.ID)
		}
		pmin, _ := task.MinTime()
		s.stream = append(s.stream, cluster.Job{Task: task, Release: sj.Release})
		s.reg.add(task.ID, task.Name, task.Weight, sj.Release, pmin)
		// Recharge the front-door backlog clock exactly as the original
		// admissions did.
		if s.ready < sj.Release {
			s.ready = sj.Release
		}
		s.ready += minWork(task) / float64(s.totalProcs)
	}
	s.counters = snap.Counters
	// The restored stream IS the submitted history: pin the counter to it,
	// whatever a hand-edited snapshot claims.
	s.counters.Submitted = len(snap.Jobs)
	s.counters.Restored = len(snap.Jobs)
	s.logger.Info("snapshot restored", "path", path, "jobs", len(snap.Jobs), "virtual_now", snap.VirtualNow)
	return snap.VirtualNow, nil
}

// snapshotLoop periodically writes checkpoints.
func (s *Server) snapshotLoop(every time.Duration) {
	defer s.loopWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			err := s.writeSnapshot()
			s.liveMu.Lock()
			s.snapshotErr = err
			s.liveMu.Unlock()
		}
	}
}
