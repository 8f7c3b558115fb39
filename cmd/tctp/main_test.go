package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"btctp", "wtctp", "rwtctp", "chb", "sweep", "random"} {
		err := run(alg, "shortest", 10, 2, 1, 3, "uniform", 1, 5_000,
			200_000, 0 /* no map */, 0, "", "")
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

// TestRunAllPlacements runs every placement field.ParsePlacement
// accepts, corridor and hotspot included, so -placement takes what
// tctp-sweep -placements takes.
func TestRunAllPlacements(t *testing.T) {
	for _, placement := range []string{"uniform", "clusters", "grid", "corridor", "hotspot"} {
		if err := run("btctp", "shortest", 10, 2, 0, 3, placement, 1, 5_000,
			200_000, 0, 0, "", ""); err != nil {
			t.Fatalf("%s: %v", placement, err)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run("nope", "shortest", 10, 2, 0, 3, "uniform", 1, 1_000, 1e5, 0, 0, "", ""); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run("btctp", "shortest", 10, 2, 0, 3, "hexagonal", 1, 1_000, 1e5, 0, 0, "", ""); err == nil {
		t.Fatal("unknown placement accepted")
	}
	if err := run("wtctp", "zigzag", 10, 2, 0, 3, "uniform", 1, 1_000, 1e5, 0, 0, "", ""); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSaveAndLoadScenario(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := run("btctp", "shortest", 8, 2, 0, 3, "grid", 1, 2_000, 1e5, 0, 0, "", path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("scenario not saved: %v", err)
	}
	// Reload and re-run on the saved scenario.
	if err := run("chb", "shortest", 0, 0, 0, 0, "uniform", 1, 2_000, 1e5, 0, 0, path, ""); err != nil {
		t.Fatalf("load failed: %v", err)
	}
	s, err := loadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTargets() != 9 || s.NumMules() != 2 {
		t.Fatalf("loaded %d targets, %d mules", s.NumTargets(), s.NumMules())
	}
}

func TestLoadScenarioErrors(t *testing.T) {
	if _, err := loadScenario("/nonexistent/file.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadScenario(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadScenario(empty); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}
