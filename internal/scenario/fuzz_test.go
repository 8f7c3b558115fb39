package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"tctp/internal/field"
	"tctp/internal/xrand"
)

// FuzzScenario holds the scenario document, a trust boundary that
// tctp-sweep -scenario and tctp-server's requests decode, to three
// rules: decoding and Validate never panic; every document Validate
// accepts re-encodes through MarshalJSON to bytes that decode and
// encode to the same bytes again; and an accepted document with at
// most 64 targets, 16 mules and 64 clusters materializes from a fixed
// seed, neither spinning nor panicking, into its targets plus the sink
// and its mules, failing only on clusters that do not fit the field.
// Larger documents are not materialized: their placements take memory
// and time in proportion to the counts.
func FuzzScenario(f *testing.F) {
	fixture, err := os.ReadFile("../../cmd/tctp-sweep/testdata/scenario.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, doc := range unplaceable {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var s Scenario
		if json.Unmarshal(doc, &s) != nil || s.Validate() != nil {
			return
		}
		enc, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("an accepted document does not encode: %v", err)
		}
		var back Scenario
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s does not decode: %v", enc, err)
		}
		if again, err := json.Marshal(&back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("%s re-encodes as %s (%v)", enc, again, err)
		}
		if s.Targets.Count > 64 || s.Fleet.Size() > 16 || s.Field.NumClusters > 64 {
			return
		}
		scn, err := s.Materialize(xrand.New(1))
		if err != nil {
			if s.Field.Placement != field.Clusters {
				t.Fatalf("%s does not materialize: %v", enc, err)
			}
			return
		}
		if scn.NumTargets() != s.Targets.Count+1 || scn.NumMules() != s.Fleet.Size() {
			t.Fatalf("%s materializes %d targets and %d mules", enc, scn.NumTargets(), scn.NumMules())
		}
	})
}
