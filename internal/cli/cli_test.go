package cli

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasp/internal/graph"
)

// TestLoadGraphRejectsInvalidWSPG: a .wspg file whose arc leaves the
// vertex range fails to load with the validation error, before any
// solver indexes a distance array with it.
func TestLoadGraphRejectsInvalidWSPG(t *testing.T) {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 1}})); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The one target follows the 36-byte header and 3 offsets.
	binary.LittleEndian.PutUint32(data[36+8*3:], 7)
	path := filepath.Join(t.TempDir(), "bad.wspg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph("", path, 0, 0)
	if err == nil {
		t.Fatalf("loaded %v with an arc to vertex 7", g)
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("error %q does not name the out-of-range endpoint", err)
	}
}
