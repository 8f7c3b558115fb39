package protocol

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tctp/internal/stats"
)

// TestCellIdentityKey pins the encoding and the key of one identity
// with every optional member set and one with none. Cell keys name the
// entries of every disk cache, so a change that moves them (a
// reordered field, a renamed tag, a dropped omitempty) must update
// these strings on purpose.
func TestCellIdentityKey(t *testing.T) {
	for _, c := range []struct {
		name     string
		id       CellIdentity
		json     string
		key      string
		optional []string // members that must be absent
	}{
		{
			name: "every member",
			id: CellIdentity{
				Point:    json.RawMessage(`{"algorithm":"btctp","targets":20}`),
				Fleet:    json.RawMessage(`{"name":"mixed"}`),
				Workload: json.RawMessage(`{"name":"bursts"}`),
				Failure:  json.RawMessage(`{"rate":0.5,"handoff":"absorb"}`),
				Seeds:    20,
				BaseSeed: 7,
				Adaptive: json.RawMessage(`{"Metric":"avg_dcdt_s","RelCI":0.05,"MinReps":5,"MaxReps":20}`),
				Metrics:  []string{"avg_dcdt_s", "avg_sd_s"},
				Vectors:  []VectorID{{Name: "dcdt_curve", Len: 8}},
				Digest:   "sha256:abc",
			},
			json: `{"point":{"algorithm":"btctp","targets":20},"fleet":{"name":"mixed"},` +
				`"workload":{"name":"bursts"},"failure":{"rate":0.5,"handoff":"absorb"},` +
				`"seeds":20,"base_seed":7,` +
				`"adaptive":{"Metric":"avg_dcdt_s","RelCI":0.05,"MinReps":5,"MaxReps":20},` +
				`"metrics":["avg_dcdt_s","avg_sd_s"],"vectors":[{"name":"dcdt_curve","len":8}],` +
				`"digest":"sha256:abc"}`,
			key: "sha256:4d7ed6e6cc02924db70aee6352a590c00f4973e678e009ec3e63496d1cc46635",
		},
		{
			name: "no optional member",
			id: CellIdentity{
				Point:   json.RawMessage(`{"algorithm":"btctp","targets":20}`),
				Seeds:   20,
				Metrics: []string{"avg_dcdt_s"},
			},
			json:     `{"point":{"algorithm":"btctp","targets":20},"seeds":20,"base_seed":0,"metrics":["avg_dcdt_s"]}`,
			key:      "sha256:a68761426fa59c66dd11b402d7614a260e1b842ade7e75c348893803ba6c3145",
			optional: []string{"fleet", "workload", "failure", "adaptive", "vectors", "digest"},
		},
	} {
		b, err := json.Marshal(c.id)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(b) != c.json {
			t.Errorf("%s: encoding\n%s\nwant\n%s", c.name, b, c.json)
		}
		for _, m := range c.optional {
			if bytes.Contains(b, []byte(`"`+m+`"`)) {
				t.Errorf("%s: empty member %q encoded", c.name, m)
			}
		}
		key, err := c.id.Key()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if key != c.key {
			t.Errorf("%s: key %s, want %s", c.name, key, c.key)
		}
		if !ValidKey(key) {
			t.Errorf("%s: ValidKey refuses its own key %s", c.name, key)
		}
	}
}

func TestValidKey(t *testing.T) {
	hex64 := strings.Repeat("0123456789abcdef", 4)
	for _, c := range []struct {
		key  string
		want bool
	}{
		{"sha256:" + hex64, true},
		// hex decoding accepts upper case; Key itself writes lower case.
		{"sha256:" + strings.ToUpper(hex64), true},
		{"", false},
		{"sha256:", false},
		{hex64, false},
		{"sha512:" + hex64, false},
		{"SHA256:" + hex64, false},
		{"sha256:" + hex64[:63], false},
		{"sha256:" + hex64 + "0", false},
		{"sha256:" + hex64[:63] + "g", false},
		{"sha256:" + hex64[:62] + "/.", false},
		{"sha256:../../" + hex64[:58], false},
		{" sha256:" + hex64[:63], false},
	} {
		if got := ValidKey(c.key); got != c.want {
			t.Errorf("ValidKey(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}

// roundTrip encodes v, decodes the bytes into a fresh value of its
// type, and requires the decoded value to equal v and to encode to the
// same bytes. It returns the encoding.
func roundTrip[T any](t *testing.T, v T) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back T
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("round trip of %s:\n%+v\nwant\n%+v", b, back, v)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, b) {
		t.Fatalf("re-encoding differs:\n%s\n%s", again, b)
	}
	return b
}

// TestChunkedWireRoundTrip: the chunked lease, result and ack decode
// back to what was encoded, More entries included, and their one-cell
// forms carry no "more" member.
func TestChunkedWireRoundTrip(t *testing.T) {
	state := func(n int) *FoldState {
		return &FoldState{
			Next:    n,
			Scalars: []stats.AccumulatorState{{N: n, Mean: 1 << 62, M2: 3, Min: 1, Max: 1<<64 - 1}},
			Vectors: [][]stats.AccumulatorState{{{N: n, Mean: 5}, {N: n - 1, Mean: 6}}},
		}
	}
	lease := CellLease{
		ID: "L1", Worker: "w1", Sweep: "s1", Cell: 3,
		Key: "sha256:" + strings.Repeat("a", 64), Fingerprint: "sha256:" + strings.Repeat("b", 64),
		TTLSeconds: 30,
		Request:    SweepRequest{Algorithms: "btctp,chb", Preset: "paper51", Targets: "10,20", Seeds: 3, Quality: true},
		More: []ChunkCell{
			{ID: "L2", Cell: 4, Key: "sha256:" + strings.Repeat("c", 64)},
			{ID: "L3", Cell: 9, Key: "sha256:" + strings.Repeat("d", 64)},
		},
	}
	result := FoldResult{
		Lease: "L1", Worker: "w1", Key: lease.Key, State: state(3),
		More: []FoldResult{
			{Lease: "L2", Worker: "w1", Key: lease.More[0].Key, State: &FoldState{
				Next: 2, Stopped: true, Reason: "converged", Scalars: state(2).Scalars,
			}},
			{Lease: "L3", Worker: "w1", Key: lease.More[1].Key, Error: "disk full"},
		},
	}
	ack := LeaseAck{
		Accepted: true,
		More: []LeaseAck{
			{Accepted: false, Stale: true},
			{Accepted: false, Error: "state refused"},
		},
	}
	for name, b := range map[string][]byte{
		"lease":  roundTrip(t, lease),
		"result": roundTrip(t, result),
		"ack":    roundTrip(t, ack),
	} {
		if !bytes.Contains(b, []byte(`"more":[`)) {
			t.Errorf("chunked %s encodes no more member: %s", name, b)
		}
	}

	lease.More, result.More, ack.More = nil, nil, nil
	for name, b := range map[string][]byte{
		"lease":  roundTrip(t, lease),
		"result": roundTrip(t, result),
		"ack":    roundTrip(t, ack),
	} {
		if bytes.Contains(b, []byte(`"more"`)) {
			t.Errorf("one-cell %s encodes a more member: %s", name, b)
		}
	}
}
