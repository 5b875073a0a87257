package cachesim

import (
	"testing"

	"fbmpk/internal/core"
	"fbmpk/internal/matgen"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// wavefrontSchedule is the level-based wavefront of LB-MPK-style
// schemes as the level-blocked engine runs it: the level permutation
// of m and a schedule with one BFS level per block, so every pass
// advances all k powers by one level.
func wavefrontSchedule(t *testing.T, m *sparse.CSR) (*sparse.CSR, LevelBlockSchedule, int) {
	t.Helper()
	lp, err := core.BFSLevels(m)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := reorder.Perm(lp.Rows).ApplySym(m)
	if err != nil {
		t.Fatal(err)
	}
	return pa, LevelBlockSchedule{LevelPtr: lp.LevelPtr, BlockPtr: core.GroupLevels(m, lp, 1)}, lp.NumLevels()
}

// TestWavefrontTrafficDegradesWithK reproduces the paper's Section VI
// argument against LB-MPK-style schemes: the level-based pipeline must
// keep all k+1 iterate vectors live, so relative to FBMPK its traffic
// advantage erodes as k grows (for a cache small enough that the
// window of live vectors does not fit).
func TestWavefrontTrafficDegradesWithK(t *testing.T) {
	spec, err := matgen.ByName("G3_circuit")
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Generate(0.02, 1)
	tri, err := sparse.Split(m)
	if err != nil {
		t.Fatal(err)
	}
	pa, ws, nl := wavefrontSchedule(t, m)
	if nl < 4 {
		t.Skipf("matrix has only %d levels; wavefront degenerate", nl)
	}
	cfg := ScaledConfig(m.MemoryBytes(), 16)

	ratioAt := func(k int) (fb, wf float64) {
		std, fbs, err := CompareMPK(cfg, m, tri, k, true)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		TraceLevelBlockedMPK(c, pa, ws, k)
		return float64(fbs.TotalDRAM()) / float64(std.TotalDRAM()),
			float64(c.Stats().TotalDRAM()) / float64(std.TotalDRAM())
	}

	fb2, wf2 := ratioAt(2)
	fb8, wf8 := ratioAt(8)
	t.Logf("DRAM vs baseline: k=2 FB %.3f wavefront %.3f; k=8 FB %.3f wavefront %.3f", fb2, wf2, fb8, wf8)
	// FBMPK's ratio improves with k; the wavefront's must not improve
	// relative to FBMPK as k grows.
	if fb8 >= fb2 {
		t.Errorf("FBMPK ratio did not improve with k: %.3f -> %.3f", fb2, fb8)
	}
	if wf8/fb8 < wf2/fb2*0.95 {
		t.Errorf("wavefront unexpectedly gained on FBMPK: k=2 %.3f/%.3f, k=8 %.3f/%.3f",
			wf2, fb2, wf8, fb8)
	}
}

// TestLevelBlockedTrafficBeatsFBModel is the CI gate behind the engine
// autotuner's arbitration: on a banded matrix with deep level structure
// the traced level-blocked traffic must undercut the FB pipeline's
// matrix-read model (U streamed 1+floor(k/2) times, L and D ceil(k/2)
// times) once k is deep enough (k >= 4) — the regime where blocking's
// read-A-once behavior beats FBMPK's halved-sweeps behavior. The block
// budget is half the cache, mirroring core.DefaultLevelBlockBytes
// relative to ConfigXeon.
func TestLevelBlockedTrafficBeatsFBModel(t *testing.T) {
	m := matgen.Grid(matgen.GridParams{
		NX: 10000, NY: 1, NZ: 1, DOF: 4, Radius: 1,
		KeepProb: 1, Symmetric: true, Seed: 7,
	})
	lp, err := core.BFSLevels(m)
	if err != nil {
		t.Fatal(err)
	}
	if lp.NumLevels() < 64 {
		t.Fatalf("banded generator produced only %d levels", lp.NumLevels())
	}
	cfg := ScaledConfig(m.MemoryBytes(), 4)
	bp := core.GroupLevels(m, lp, int(cfg.SizeBytes/2))
	pa, err := reorder.Perm(lp.Rows).ApplySym(m)
	if err != nil {
		t.Fatal(err)
	}
	s := LevelBlockSchedule{LevelPtr: lp.LevelPtr, BlockPtr: bp}

	var nnzL, nnzD, nnzU int64
	for i := 0; i < m.Rows; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			switch c := int(m.ColIdx[j]); {
			case c < i:
				nnzL++
			case c == i:
				nnzD++
			default:
				nnzU++
			}
		}
	}
	for _, k := range []int{4, 6, 8} {
		fbModel := 12 * (nnzU + int64((k+1)/2)*(nnzL+nnzD) + int64(k/2)*nnzU)
		c := MustNew(cfg)
		TraceLevelBlockedMPK(c, pa, s, k)
		got := c.Stats().ReadBytes
		if got >= fbModel {
			t.Errorf("k=%d: level-blocked read %d bytes, FB model %d — blocking lost", k, got, fbModel)
		}
		if got < pa.MemoryBytes() {
			t.Errorf("k=%d: level-blocked read %d bytes < matrix %d — undercounting", k, got, pa.MemoryBytes())
		}
	}
}

// TestDefaultLevelBlockBytesMatchesXeon pins core's literal block
// budget (core cannot import cachesim) to the half-LLC convention it
// documents.
func TestDefaultLevelBlockBytesMatchesXeon(t *testing.T) {
	if int64(core.DefaultLevelBlockBytes) != ConfigXeon.SizeBytes/2 {
		t.Errorf("core.DefaultLevelBlockBytes = %d, want ConfigXeon.SizeBytes/2 = %d",
			core.DefaultLevelBlockBytes, ConfigXeon.SizeBytes/2)
	}
}

// TestWavefrontTrafficLowerBound: the wavefront replay touches every
// matrix byte at least once per full k-sweep set on a cold tiny cache.
func TestWavefrontTrafficLowerBound(t *testing.T) {
	spec, err := matgen.ByName("shipsec1")
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Generate(0.003, 2)
	pa, ws, _ := wavefrontSchedule(t, m)
	c := MustNew(Config{SizeBytes: 8 << 10, Assoc: 8, LineBytes: 64})
	TraceLevelBlockedMPK(c, pa, ws, 3)
	if c.Stats().ReadBytes < m.MemoryBytes() {
		t.Errorf("wavefront read %d bytes < matrix %d", c.Stats().ReadBytes, m.MemoryBytes())
	}
}
