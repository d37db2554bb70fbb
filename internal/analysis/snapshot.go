package analysis

import "sync"

// Snapshot is one loaded, type-checked view of the packages under
// analysis plus the one expensive derived structure the passes share:
// the module call graph, built at most once per load. A single Load
// feeds a single Snapshot, and every pass — and every output format —
// runs off the same in-memory state: hotpathalloc reads the graph
// through Graph. BenchmarkRuulint in
// internal/bench tracks the wall-clock cost as the ruulint_ns
// trajectory point.
type Snapshot struct {
	// Packages are the packages under analysis, in load order (sorted
	// by import path).
	Packages []*Package

	graphOnce sync.Once
	graph     *CallGraph
}

// NewSnapshot wraps the packages for shared analysis.
func NewSnapshot(pkgs []*Package) *Snapshot {
	return &Snapshot{Packages: pkgs}
}

// Graph returns the module call graph, building it on first use and
// sharing it across every pass of this snapshot. Safe for concurrent
// use: passes may run in parallel off one snapshot.
func (s *Snapshot) Graph() *CallGraph {
	s.graphOnce.Do(func() {
		s.graph = BuildCallGraph(s.Packages)
	})
	return s.graph
}
