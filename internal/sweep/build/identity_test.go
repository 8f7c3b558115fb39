package build

import (
	"testing"

	"tctp/internal/sweep"
	"tctp/internal/sweep/protocol"
)

// TestPersistedIdentities pins the cell key and the plan fingerprint of
// one-cell requests to committed hex. Disk cache entries (-cache-dir)
// are stored under cell keys, and checkpoints and shard files carry the
// plan fingerprint; both outlive a build. A change that moves either
// one (a reordered Point or CellIdentity field, a renamed JSON tag, a
// new default) orphans every stored entry, so it must update these
// strings on purpose.
func TestPersistedIdentities(t *testing.T) {
	paper := func(r protocol.SweepRequest) protocol.SweepRequest {
		r.Preset, r.Targets = "paper51", "20"
		if r.Fleets == "" {
			r.Mules = "4"
		}
		return r
	}
	for _, c := range []struct {
		name             string
		req              protocol.SweepRequest
		key, fingerprint string
	}{
		{"paper cell", paper(protocol.SweepRequest{}),
			"sha256:7bf87953639f9bffeb88c01d8bd2fd9348b3a2014e2bdb348d62eee6520e5e80",
			"sha256:873cc9f195f270a1d3612d4de637857f42da5db5563a4563baef06dc811554cc"},
		{"fleet", paper(protocol.SweepRequest{Fleets: "2x1+2x3"}),
			"sha256:efb87c3985580b8ecb2f7f6ba2ee8c9bbb63cd16c00712b1ce80f88df82e2fd7",
			"sha256:39f4c1f0f3eeb23005721fa0745a4ac6a701976c4c687e7a4a4270dd4cec6c0b"},
		{"bursts", paper(protocol.SweepRequest{Workloads: "bursts"}),
			"sha256:02f9588cb9e3c3387c1dffd9ce2f22fb7f5c404ed3b6536d55b3be9cc56f5118",
			"sha256:3833522cba3f02e72aa54e36fa2e1cc797c6fa4b505dc8486dcef74ff114e609"},
		{"failures", paper(protocol.SweepRequest{Failures: "0.5:absorb"}),
			"sha256:88baf4c6503eec4109b76637819522fe622694dbd000b17cd4a9e08152ce869c",
			"sha256:d5a33a9664b879d9bf755a53cefa62cf82129a3f6aaf6f33313f187cbbe7d7db"},
		{"adaptive", paper(protocol.SweepRequest{Adaptive: "avg_dcdt_s:0.05:5:20"}),
			"sha256:fa00c9b15da130d1597b8aa3a86b2028db19fc1b40d060e9fb863a5ce892d008",
			"sha256:fcf1df87bd9f847ada509767a90fdaf85c8ebc168e2d76a1ae142da3cc8bcf05"},
	} {
		spec, err := Spec(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		j, err := sweep.Plan(spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if j.Cells() != 1 {
			t.Fatalf("%s: %d cells, want 1", c.name, j.Cells())
		}
		key, err := j.CellKey(0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if key != c.key {
			t.Errorf("%s: cell key %s, want %s", c.name, key, c.key)
		}
		if fp := j.Fingerprint(); fp != c.fingerprint {
			t.Errorf("%s: fingerprint %s, want %s", c.name, fp, c.fingerprint)
		}
	}
}
