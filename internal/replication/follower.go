package replication

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/store"
)

// ErrFeedNotFound reports a feed endpoint answering 404/410: the dataset
// does not exist (or is no longer replicable) on the primary. The follower
// keeps retrying — datasets appear and disappear at runtime — but managers
// may use it to retire followers for dropped datasets.
var ErrFeedNotFound = errors.New("replication: feed not found on primary")

// FollowerConfig configures one dataset's follower.
type FollowerConfig struct {
	// Name is the dataset name on the primary.
	Name string
	// Primary is the primary's base URL, e.g. "http://127.0.0.1:8080".
	Primary string
	// Client serves the feed requests; nil uses a client with no overall
	// timeout (the feed is long-lived — transport-level timeouts only).
	Client *http.Client
	// Bootstrap builds the replica engine from the first shipped snapshot.
	// Later snapshots (gap re-bootstraps) reset the same engine in place
	// via Engine.ResetToSnapshot.
	Bootstrap func(s *store.Snapshot) (*repro.Engine, error)
	// Backoff is the reconnect delay; 0 means 500ms.
	Backoff time.Duration
	// Logf, when non-nil, receives reconnect/bootstrap log lines.
	Logf func(format string, args ...any)
}

// FollowerStats is a point-in-time snapshot of one follower's progress.
type FollowerStats struct {
	// LastAppliedEpoch is the replica's committed epoch; PrimaryEpoch the
	// primary's epoch as of the last frame seen; Lag their difference
	// (0 while no heartbeat has arrived yet).
	LastAppliedEpoch, PrimaryEpoch, Lag uint64
	// Reconnects counts feed connections that ended and were retried;
	// Bootstraps counts snapshot loads (1 for a clean lifetime; more means
	// gaps forced full re-bootstraps); BatchesApplied counts replicated
	// batches committed through ApplyReplicated.
	Reconnects, Bootstraps, BatchesApplied uint64
}

// Follower replicates one dataset from a primary's feed: it bootstraps an
// engine from the shipped checkpoint, applies the batch stream through
// Engine.ApplyReplicated, reconnects with resume on any stream end, and
// re-bootstraps from a fresh snapshot when it detects a gap. Create with
// NewFollower, drive with Run, observe with Stats.
type Follower struct {
	cfg FollowerConfig

	mu  sync.Mutex
	eng *repro.Engine

	// rebootstrap forces the next connect to ask from=0 after a gap.
	rebootstrap atomic.Bool

	lastApplied, primaryEpoch              atomic.Uint64
	reconnects, bootstraps, batchesApplied atomic.Uint64
}

// NewFollower builds a follower; it does nothing until Run.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	return &Follower{cfg: cfg}
}

// Engine returns the replica engine, or nil before the first bootstrap.
func (f *Follower) Engine() *repro.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eng
}

// Stats reports the follower's replication progress.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		LastAppliedEpoch: f.lastApplied.Load(),
		PrimaryEpoch:     f.primaryEpoch.Load(),
		Reconnects:       f.reconnects.Load(),
		Bootstraps:       f.bootstraps.Load(),
		BatchesApplied:   f.batchesApplied.Load(),
	}
	if st.PrimaryEpoch > st.LastAppliedEpoch {
		st.Lag = st.PrimaryEpoch - st.LastAppliedEpoch
	}
	return st
}

// Run follows the feed until ctx fires. Every stream end — network cut,
// primary restart, slow-subscriber drop — is retried with backoff,
// resuming from the last applied epoch; chain gaps re-bootstrap from a
// fresh snapshot. Run returns ctx.Err() on cancellation, or the terminal
// error if the replica engine itself rejects state (closed engine).
func (f *Follower) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := f.stream(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, repro.ErrClosed) {
			return err
		}
		f.reconnects.Add(1)
		f.logf("replication: %s: feed ended (%v), retrying in %v", f.cfg.Name, err, f.cfg.Backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(f.cfg.Backoff):
		}
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// stream runs one feed connection to completion.
func (f *Follower) stream(ctx context.Context) error {
	from := f.lastApplied.Load()
	if f.rebootstrap.Load() || f.Engine() == nil {
		from = 0
	}
	u := fmt.Sprintf("%s/v2/replication/feed/%s?from=%d",
		f.cfg.Primary, url.PathEscape(f.cfg.Name), from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusGone:
		return fmt.Errorf("%w: %s (HTTP %d)", ErrFeedNotFound, f.cfg.Name, resp.StatusCode)
	default:
		return fmt.Errorf("replication: feed %s: HTTP %d", f.cfg.Name, resp.StatusCode)
	}

	fr := NewFrameReader(bufio.NewReader(resp.Body))
	for {
		frame, err := fr.Next()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("replication: feed %s: stream closed", f.cfg.Name)
			}
			return err
		}
		switch frame.Kind {
		case FrameSnapshot:
			if err := f.applySnapshot(frame.Snapshot); err != nil {
				return err
			}
		case FrameBatch:
			eng := f.Engine()
			if eng == nil {
				return fmt.Errorf("%w: batch before snapshot on a bootstrap stream", ErrBadFrame)
			}
			epoch, err := eng.ApplyReplicated(frame.Batch)
			if err != nil {
				if errors.Is(err, repro.ErrReplicaGap) {
					// The stream no longer chains onto local state —
					// reconnect from zero and let the primary ship a
					// fresh snapshot.
					f.rebootstrap.Store(true)
					f.logf("replication: %s: %v; forcing re-bootstrap", f.cfg.Name, err)
				}
				return err
			}
			f.lastApplied.Store(epoch)
			if frame.Batch.Epoch > f.primaryEpoch.Load() {
				f.primaryEpoch.Store(frame.Batch.Epoch)
			}
			f.batchesApplied.Add(1)
		case FrameHeartbeat:
			f.primaryEpoch.Store(frame.Epoch)
		}
	}
}

func (f *Follower) applySnapshot(s *store.Snapshot) error {
	f.mu.Lock()
	eng := f.eng
	f.mu.Unlock()
	if eng == nil {
		built, err := f.cfg.Bootstrap(s)
		if err != nil {
			return fmt.Errorf("replication: %s: bootstrap: %w", f.cfg.Name, err)
		}
		f.mu.Lock()
		f.eng = built
		f.mu.Unlock()
	} else if err := eng.ResetToSnapshot(s); err != nil {
		return err
	}
	f.rebootstrap.Store(false)
	f.lastApplied.Store(s.Epoch)
	f.bootstraps.Add(1)
	f.logf("replication: %s: bootstrapped at epoch %d", f.cfg.Name, s.Epoch)
	return nil
}
