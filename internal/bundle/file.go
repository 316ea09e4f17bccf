package bundle

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"wasp/internal/checkpoint"
	"wasp/internal/fault"
)

// Save writes the bundle to path crash-safely through
// checkpoint.WriteFile (temp file, fsync, rename, directory fsync). A
// registry rescanning the directory therefore only ever sees complete
// bundles — either the previous one or the new one, never a torn write.
func Save(path string, b *Bundle) error {
	err := checkpoint.WriteFile(path, func(w io.Writer) error { return Write(w, b) })
	if err != nil {
		return fmt.Errorf("bundle: save: %w", err)
	}
	return nil
}

// Load reads and validates the bundle at path.
func Load(path string) (*Bundle, error) {
	// The scanner-facing fault site: an active plan may fail the load
	// before the file is opened, the way a flaky filesystem fails a
	// rescan — the input the per-file quarantine backoff is tested
	// against.
	if err := fault.InjectErr(fault.BundleLoad, 0); err != nil {
		return nil, fmt.Errorf("bundle: load %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: load: %w", err)
	}
	defer f.Close()
	b, err := Read(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("bundle: load %s: %w", path, err)
	}
	return b, nil
}
