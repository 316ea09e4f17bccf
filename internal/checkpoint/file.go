package checkpoint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wasp/internal/fault"
)

// Save writes the snapshot to path crash-safely (see WriteFile): a
// reader, or a restarted process, sees either the previous complete
// checkpoint or the new complete checkpoint — never a torn one — and a
// power cut after Save returns cannot lose the rename.
func Save(path string, s *Snapshot) error {
	// The chaos suite's disk-fault site: an active plan may stall here
	// (congested disk) or hand back a transient error or ENOSPC before
	// any byte is written — the same failures a real filesystem
	// produces, seeded and reproducible.
	if err := fault.InjectErr(fault.DiskWrite, 0); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := WriteFile(path, s.Encode); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// WriteFile is the crash-safe write sequence checkpoints and bundles
// share: encode into a temporary file in path's directory, flush,
// fsync it, rename over path, fsync the directory. The temporary file
// is removed on any failure.
func WriteFile(path string, encode func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	w := bufio.NewWriterSize(tmp, 1<<16)
	if err = encode(w); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Make the rename itself durable. Directory fsync is best-effort on
	// filesystems that do not support it; the rename is still atomic.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Load reads and validates the snapshot at path.
func Load(path string) (*Snapshot, error) {
	if err := fault.InjectErr(fault.DiskRead, 0); err != nil {
		return nil, fmt.Errorf("checkpoint: load %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load: %w", err)
	}
	defer f.Close()
	s, err := Decode(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load %s: %w", path, err)
	}
	return s, nil
}
