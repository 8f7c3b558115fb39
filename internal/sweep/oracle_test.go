package sweep

// The oracles of the encoded cell identities (cellkey.go): a cell key
// and a plan fingerprint computed by marshalling one whole struct per
// cell and per plan. The spliced encodings Plan stores must hash the
// same bytes. And the oracle of the CSV sink (sink.go): every row built
// as strings and written by encoding/csv. The allocation-free sink must
// write the same bytes.

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"testing"

	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/sweep/protocol"
)

// cellIdentity builds the content-addressed identity of one cell as a
// struct: the point, the full fleet and workload configurations behind
// the point's names, the replication protocol, the metric schema, and
// the config digest. It must be called on a defaults-applied spec.
func (s *Spec) cellIdentity(d cellDef) (protocol.CellIdentity, error) {
	id := protocol.CellIdentity{
		Seeds:    s.Seeds,
		BaseSeed: s.BaseSeed,
		Metrics:  make([]string, len(s.Metrics)),
		Digest:   s.ConfigDigest,
	}
	var err error
	if id.Point, err = json.Marshal(d.point); err != nil {
		return id, err
	}
	if d.fleet.Size() > 0 || d.fleet.Name != "" {
		if id.Fleet, err = json.Marshal(d.fleet); err != nil {
			return id, err
		}
	}
	if d.workload.Enabled() {
		if id.Workload, err = json.Marshal(d.workload); err != nil {
			return id, err
		}
	}
	if d.failure.Enabled() {
		if id.Failure, err = json.Marshal(d.failure); err != nil {
			return id, err
		}
	}
	if s.Adaptive != nil {
		if id.Adaptive, err = json.Marshal(s.Adaptive); err != nil {
			return id, err
		}
	}
	for i, m := range s.Metrics {
		id.Metrics[i] = m.Name
	}
	for _, vm := range s.Vectors {
		id.Vectors = append(id.Vectors, protocol.VectorID{Name: vm.Name, Len: vm.Len})
	}
	return id, nil
}

// fingerprintOracle hashes the plan's structural identity as one
// marshalled struct whose last member lists every cell's point.
func (s *Spec) fingerprintOracle(defs []cellDef) (string, error) {
	type vectorID struct {
		Name string `json:"name"`
		Len  int    `json:"len"`
	}
	id := struct {
		Name      string              `json:"name"`
		Seeds     int                 `json:"seeds"`
		BaseSeed  uint64              `json:"base_seed"`
		Adaptive  *Adaptive           `json:"adaptive,omitempty"`
		Metrics   []string            `json:"metrics"`
		Vectors   []vectorID          `json:"vectors,omitempty"`
		Workloads []scenario.Workload `json:"workloads,omitempty"`
		Fleets    []scenario.Fleet    `json:"fleets,omitempty"`
		Digest    string              `json:"digest,omitempty"`
		Points    []Point             `json:"points"`
	}{
		Name:      s.Name,
		Seeds:     s.Seeds,
		BaseSeed:  s.BaseSeed,
		Adaptive:  s.Adaptive,
		Metrics:   make([]string, len(s.Metrics)),
		Workloads: s.Workloads,
		Fleets:    s.Fleets,
		Digest:    s.ConfigDigest,
		Points:    make([]Point, len(defs)),
	}
	for i, m := range s.Metrics {
		id.Metrics[i] = m.Name
	}
	for _, vm := range s.Vectors {
		id.Vectors = append(id.Vectors, vectorID{Name: vm.Name, Len: vm.Len})
	}
	for i, d := range defs {
		id.Points[i] = d.point
	}
	b, err := json.Marshal(id)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// CheckIdentitiesAgainstOracle compares every cell key of j, through
// both CellKey and CellKeys, and the plan fingerprint with the
// whole-struct oracles. It returns the first difference, or nil. (It
// is exported to this directory's external tests, FuzzSweepRequest
// among them.)
func CheckIdentitiesAgainstOracle(j *Job) error {
	// The fingerprint pins the full plan: every shard carries the
	// unsharded plan's, so only an unsharded job can be recomputed.
	if j.shards == 1 {
		fp, err := j.spec.fingerprintOracle(j.defs)
		if err != nil {
			return fmt.Errorf("fingerprint oracle: %w", err)
		}
		if fp != j.Fingerprint() {
			return fmt.Errorf("fingerprint %s, oracle %s", j.Fingerprint(), fp)
		}
	}
	keys := j.CellKeys()
	if len(keys) != j.Cells() {
		return fmt.Errorf("%d keys for %d cells", len(keys), j.Cells())
	}
	for i, d := range j.defs {
		id, err := j.spec.cellIdentity(d)
		if err != nil {
			return fmt.Errorf("cell %d: identity oracle: %w", i, err)
		}
		want, err := id.Key()
		if err != nil {
			return fmt.Errorf("cell %d: identity oracle: %w", i, err)
		}
		got, err := j.CellKey(i)
		if err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		if got != want || keys[i] != want {
			return fmt.Errorf("cell %d (%v): CellKey %s, CellKeys %s, oracle %s", i, d.point, got, keys[i], want)
		}
	}
	return nil
}

// TestCellKeysMatchOracle holds every key and fingerprint of specs
// crossing each identity member — fleets, workloads, failures,
// adaptive stopping, vectors, partitions, digest, skipped cells,
// strings that JSON escapes — and of every shard of them to the
// whole-struct oracles.
func TestCellKeysMatchOracle(t *testing.T) {
	mixed, err := scenario.ParseFleet("1x1+1x4")
	if err != nil {
		t.Fatal(err)
	}
	battery, err := scenario.ParseFleet("2x2@500000")
	if err != nil {
		t.Fatal(err)
	}
	bursts := scenario.Workload{Name: "bursts", Kind: scenario.KindBursts}
	cbtctp, err := patrol.Partitioned(patrol.Planned(&core.BTCTP{}), core.PartitionConfig{
		Method: core.KMeansMethod, K: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]func(*Spec){
		"tiny":   func(*Spec) {},
		"speeds": func(s *Spec) { s.Speeds = []float64{1, 2.5}; s.Mules = []int{2, 3} },
		"fleets": func(s *Spec) {
			s.Mules, s.Fleets = nil, []scenario.Fleet{scenario.Homogeneous(2, 2), mixed, battery}
		},
		"workloads":  func(s *Spec) { s.Workloads = []scenario.Workload{{}, packetsWorkload(), bursts} },
		"failures":   func(s *Spec) { s.Failures = []Failure{{}, {Rate: 0.25}, {Rate: 0.5, Handoff: "absorb"}} },
		"adaptive":   func(s *Spec) { s.Adaptive = &Adaptive{Metric: "avg_dcdt_s", RelCI: 0.05, MinReps: 2} },
		"vectors":    func(s *Spec) { s.Vectors = []VectorMetric{DCDTCurve(8), GroupDCDT(4)} },
		"no metrics": func(s *Spec) { s.Metrics = nil; s.Vectors = []VectorMetric{DCDTCurve(3)} },
		"partitions": func(s *Spec) {
			s.Algorithms = append(s.Algorithms, Algo("cbtctp", cbtctp))
			s.Partitions = []Partition{{}, {Method: "kmeans", K: 2}, {Method: "sectors", K: 4, Alloc: "count"}}
		},
		"digest": func(s *Spec) { s.ConfigDigest = "sha256:<&> "; s.BaseSeed = 1<<64 - 1 },
		"axes": func(s *Spec) {
			s.Placements = []field.Placement{field.Uniform, field.Clusters}
			s.Horizons = []float64{4_000, 1e21}
			s.Battery = []bool{false, true}
			s.VIPs = []int{0, 2}
			s.VIPWeights = []int{2, 3}
		},
		"skips": func(s *Spec) {
			s.Targets = []int{6, 8, 10}
			s.Skip = func(p Point) string {
				if p.Targets == 8 {
					return "skipped"
				}
				return ""
			}
		},
		"everything": func(s *Spec) {
			s.Name = "<every & member>"
			s.Mules, s.Fleets = nil, []scenario.Fleet{mixed, battery}
			s.Workloads = []scenario.Workload{packetsWorkload(), {}}
			s.Failures = []Failure{{Rate: 0.5, Handoff: "absorb"}, {}}
			s.Adaptive = &Adaptive{Metric: "avg_sd_s", RelCI: 0.1, MinReps: 3, MaxReps: 5}
			s.Vectors = []VectorMetric{DCDTCurve(4)}
			s.Partitions = []Partition{{Method: "sectors", K: 2}, {}}
			s.ConfigDigest = "digest"
		},
	}
	for name, mutate := range specs {
		spec := tinySpec()
		mutate(&spec)
		j, err := Plan(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if j.Cells() == 0 {
			t.Fatalf("%s: empty plan", name)
		}
		if err := CheckIdentitiesAgainstOracle(j); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for n := 2; n <= 3; n++ {
			for i := range n {
				sh, err := j.Shard(i, n)
				if err != nil {
					t.Fatal(err)
				}
				if sh.Fingerprint() != j.Fingerprint() {
					t.Errorf("%s: shard %d/%d fingerprint %s, plan %s", name, i, n, sh.Fingerprint(), j.Fingerprint())
				}
				if err := CheckIdentitiesAgainstOracle(sh); err != nil {
					t.Errorf("%s: shard %d/%d: %v", name, i, n, err)
				}
			}
		}
	}
}

// csvOracle is the CSV sink rendered through encoding/csv: each row a
// []string of fresh strings, each metric through strconv's 'f' format
// at three decimals.
type csvOracle struct {
	w    *csv.Writer
	spec *Spec
}

func newCSVOracle(w io.Writer) Sink { return &csvOracle{w: csv.NewWriter(w)} }

func pointRecord(p Point) []string {
	return []string{
		p.Algorithm,
		strconv.Itoa(p.Targets),
		strconv.Itoa(p.Mules),
		strconv.FormatFloat(p.Speed, 'g', -1, 64),
		p.Fleet,
		p.Placement.String(),
		strconv.FormatFloat(p.Horizon, 'g', -1, 64),
		strconv.FormatBool(p.Battery),
		strconv.Itoa(p.VIPs),
		strconv.Itoa(p.VIPWeight),
		p.Workload,
		p.Partition,
		p.Failure,
	}
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

func (s *csvOracle) Begin(spec *Spec, cells int) error {
	s.spec = spec
	header := append([]string{}, pointHeader...)
	header = append(header, "reps")
	for _, m := range spec.Metrics {
		header = append(header, m.Name, m.Name+"_ci95")
	}
	for _, vm := range spec.Vectors {
		for k := 0; k < vm.Len; k++ {
			header = append(header, fmt.Sprintf("%s_%d", vm.Name, k+1))
		}
	}
	return s.w.Write(header)
}

func (s *csvOracle) Cell(c *CellResult) error {
	rec := pointRecord(c.Point)
	rec = append(rec, strconv.Itoa(c.Reps))
	for _, m := range c.Metrics {
		rec = append(rec, fmtF(m.Mean), fmtF(m.CI95))
	}
	for i, vm := range s.spec.Vectors {
		vs := c.Vectors[i]
		for k := 0; k < vm.Len; k++ {
			if k < len(vs.Mean) {
				rec = append(rec, fmtF(vs.Mean[k]))
			} else {
				rec = append(rec, "")
			}
		}
	}
	return s.w.Write(rec)
}

func (s *csvOracle) End(*Result) error {
	s.w.Flush()
	return s.w.Error()
}
