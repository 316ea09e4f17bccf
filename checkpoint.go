package wasp

import (
	"errors"

	"wasp/internal/checkpoint"
)

// Checkpoint is a point-in-time snapshot of a Wasp solve: the
// upper-bound distance array plus the identity of the (graph, source)
// pair it belongs to. Wasp's distance array is monotone — entries only
// ever decrease, and only to lengths of real paths — so a snapshot
// captured while workers run is itself a valid upper-bound state, and
// resuming from it (Session.Resume, Pool.Resume, Registry.Resume)
// converges to exactly the distances an uninterrupted solve produces.
//
// Resume is the one seeded-solve path. Seeds come from the periodic
// CheckpointSink of a supervised session, LoadCheckpoint reading a file
// a previous process saved, and MutationDelta.Seed repairing an exact
// pre-mutation solution (which Registry.Mutate does for every cached
// answer of the retiring version).
// SaveCheckpoint persists one crash-safely (atomic write-then-rename,
// fsynced).
type Checkpoint = checkpoint.Snapshot

var errNilCheckpoint = errors.New("wasp: Resume from nil checkpoint")

// seedMatches is the one check that cp can seed a solve on g: it must
// be non-nil and carry g's shape and weight-covering content
// fingerprint.
func seedMatches(g *Graph, cp *Checkpoint) error {
	if cp == nil {
		return errNilCheckpoint
	}
	return cp.Matches(g.NumVertices(), g.NumEdges(), g.Directed(), g.WeightFingerprint())
}

// stamp wraps dist as a checkpoint of a solve from source on g, stamped
// with g's shape and content fingerprint — the identity seedMatches
// checks. Callers fill Elapsed and Relaxations when they know them.
func stamp(g *Graph, source uint32, dist []uint32) *Checkpoint {
	return &Checkpoint{
		Source:        source,
		GraphVertices: g.NumVertices(),
		GraphEdges:    g.NumEdges(),
		Directed:      g.Directed(),
		WeightFP:      g.WeightFingerprint(),
		Dist:          dist,
	}
}

// SaveCheckpoint writes cp to path crash-safely: a reader — including
// a process restarted after a kill — sees either the previous complete
// checkpoint or the new one, never a torn file.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	return checkpoint.Save(path, cp)
}

// LoadCheckpoint reads and validates the checkpoint at path. The
// format is versioned and checksummed; truncated or corrupted files
// return an error rather than garbage distances.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return checkpoint.Load(path)
}

// ErrStalled is returned (wrapped, with a worker-state dump) by a
// supervised Session.Run whose solve stopped making relaxation
// progress for Options.StallTimeout. The run is cancelled and the
// partial result returned alongside the error; when a CheckpointSink
// is configured, a final forced checkpoint is emitted first so the
// stalled solve's work is not lost. Test with errors.Is.
var ErrStalled = errors.New("wasp: solve stalled")
