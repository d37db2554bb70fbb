package analysis

import (
	"sync"
	"testing"
)

// TestPassesShareSnapshotConcurrently drives every default pass in its
// own goroutine over one shared Snapshot of the real tree. The shared
// surface — the call graph behind sync.Once, read-only once built —
// must hold up under -race; any unsynchronized lazy state in a pass
// shows up here before it shows up as a corrupted CI run.
func TestPassesShareSnapshotConcurrently(t *testing.T) {
	mod := loadRepo(t)
	snap := NewSnapshot(mod.Packages)
	passes := DefaultPasses(mod.Path)

	var wg sync.WaitGroup
	for _, p := range passes {
		wg.Add(1)
		go func(p *Pass) {
			defer wg.Done()
			if p.Init != nil {
				p.Init(snap)
			}
			for _, pkg := range snap.Packages {
				_ = p.Run(pkg)
			}
		}(p)
	}
	wg.Wait()

	// The sequential driver over the same snapshot must still agree
	// with the tree-clean gate after the concurrent stampede.
	if fs, _ := CheckSnapshot(snap, passes); len(fs) != 0 {
		t.Errorf("sequential re-run after concurrent passes produced %d findings", len(fs))
	}
}
