// Package cli holds what the repository's commands share.
package cli

import (
	"fmt"
	"os"
	"strings"

	"wasp/internal/gen"
	"wasp/internal/graph"
)

// LoadGraph returns the graph named by a command's -file or -graph
// flags. A file ending in .wspg is read as WSPG binary and any other
// file as a text edge list; otherwise name is generated as a synthetic
// workload with n vertices from seed. A file wins over a name.
func LoadGraph(name, file string, n int, seed uint64) (*graph.Graph, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(file, ".wspg") {
			return graph.ReadBinary(f)
		}
		return graph.ReadText(f)
	case name != "":
		return gen.Generate(name, gen.Config{N: n, Seed: seed})
	default:
		return nil, fmt.Errorf("need -graph or -file")
	}
}
