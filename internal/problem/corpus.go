package problem

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"bddmin/internal/logic"
)

// Corpus line format — the shared batch-input representation behind
// `bddmin -spec -` and the bddload corpus flag. One instance per line:
//
//	# comment                        blank lines and #-comments are skipped
//	d1 01 1d 01                      a leaf-notation spec
//	@pla relative/path.pla [output]  a PLA file, optional output column
//	@blif relative/path.blif [node]  a BLIF file, optional node name
//	@netblif relative/path.blif      every internal node of a BLIF network,
//	                                 one EBM instance per node
//
// File references resolve relative to the corpus's base directory, and the
// referenced file contents are inlined into the Problem's Raw field, so a
// loaded corpus is self-contained: the load generator forwards Raw over
// the wire and the server never touches the filesystem.

// ExpandLine parses one corpus line against baseDir. A spec, @pla or @blif
// line yields one instance; an `@netblif path` line expands a BLIF network
// into one EBM instance per internal node — the whole-network optimizer's
// workload (package network) expressed as corpus entries, so load runs and
// the harness can replay exactly the per-node minimizations a network
// sweep performs. Blank lines and comments return (nil, nil).
func ExpandLine(line, baseDir string) ([]*Problem, error) {
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		return nil, nil
	}
	if !strings.HasPrefix(trimmed, "@") {
		return one(FromSpec(trimmed))
	}
	fields := strings.Fields(trimmed)
	if fields[0] == "@netblif" && len(fields) != 2 {
		return nil, fmt.Errorf("problem: corpus line %q: @netblif takes exactly a file path", trimmed)
	}
	if len(fields) < 2 {
		return nil, fmt.Errorf("problem: corpus line %q needs a file path", trimmed)
	}
	path := fields[1]
	if !filepath.IsAbs(path) {
		path = filepath.Join(baseDir, path)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("problem: corpus line %q: %w", trimmed, err)
	}
	switch fields[0] {
	case "@pla":
		output := 0
		if len(fields) > 2 {
			if output, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("problem: corpus line %q: bad output column", trimmed)
			}
		}
		return one(ParsePLA(string(src), output, fields[1]))
	case "@blif":
		node := ""
		if len(fields) > 2 {
			node = fields[2]
		}
		return one(ParseBLIF(string(src), node, fields[1]))
	case "@netblif":
		return expandNetwork(string(src), fields[1], trimmed)
	}
	return nil, fmt.Errorf("problem: corpus line %q: unknown directive %s (want @pla, @blif or @netblif)", trimmed, fields[0])
}

// one wraps a single parsed instance as ExpandLine's result.
func one(p *Problem, err error) ([]*Problem, error) {
	if err != nil {
		return nil, err
	}
	return []*Problem{p}, nil
}

// expandNetwork is @netblif: one instance per named internal node of the
// BLIF network src, read from file and listed on corpus line trimmed.
func expandNetwork(src, file, trimmed string) ([]*Problem, error) {
	net, err := logic.ParseBLIFString(src)
	if err != nil {
		return nil, fmt.Errorf("problem: corpus line %q: %w", trimmed, err)
	}
	var out []*Problem
	seen := map[string]bool{}
	for _, nd := range net.Nodes() {
		if nd.Type == logic.Input || nd.Type == logic.Const {
			continue
		}
		if nd.Name == "" || seen[nd.Name] {
			continue // unnamed helpers and shadowed names are unaddressable
		}
		seen[nd.Name] = true
		p, err := ParseBLIF(src, nd.Name, file)
		if err != nil {
			return nil, fmt.Errorf("problem: corpus line %q: node %s: %w", trimmed, nd.Name, err)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("problem: corpus line %q: network has no internal nodes", trimmed)
	}
	return out, nil
}

// LoadCorpus reads a corpus stream line by line. Entries that normalize to
// the same CanonicalKey are deduplicated (first spelling wins) — a corpus
// listing `@blif mux.blif` and `@blif mux.blif inner` where the auto-pick
// resolves to inner is one instance, not two, and replaying it should not
// silently skew toward the duplicate. Errors name the offending line
// number; an empty corpus is an error (a load run against it would
// silently do nothing).
func LoadCorpus(r io.Reader, baseDir string) ([]*Problem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []*Problem
	seen := map[string]bool{}
	line := 0
	for sc.Scan() {
		line++
		ps, err := ExpandLine(sc.Text(), baseDir)
		if err != nil {
			return nil, fmt.Errorf("corpus line %d: %w", line, err)
		}
		for _, p := range ps {
			if !seen[p.CanonicalKey()] {
				seen[p.CanonicalKey()] = true
				out = append(out, p)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("problem: corpus is empty")
	}
	return out, nil
}

// LoadCorpusFile opens and reads a corpus file; file references resolve
// relative to the file's directory.
func LoadCorpusFile(path string) ([]*Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCorpus(f, filepath.Dir(path))
}
