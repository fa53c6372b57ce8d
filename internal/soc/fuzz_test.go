package soc

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"pabst/internal/config"
	"pabst/internal/qos"
	"pabst/internal/qospolicy"
	"pabst/internal/workload"
)

// fuzzSized reports whether a configuration is small enough to build
// inside a fuzz worker. Validate rejects what cannot be a machine; how
// big a machine may be is the operator's call, so geometry a
// configuration may legitimately scale up is capped here instead.
func fuzzSized(cfg *config.System) bool {
	const maxCache = 1 << 20
	return cfg.NumTiles() <= 16 && cfg.NumMCs <= 8 && cfg.MaxMSHRs <= 64 &&
		cfg.L1Bytes <= maxCache && cfg.L2Bytes <= maxCache && cfg.L3SliceBytes <= maxCache &&
		cfg.DRAM.Banks <= 64 && cfg.Core.WindowOps <= 1024
}

// FuzzConfigJSON decodes arbitrary bytes strictly into a configuration
// (unknown fields and trailing data refused), runs Validate, and builds
// what it accepts: every accepted configuration makes a machine that
// attaches a workload, finalizes and runs, or is refused with an error —
// never a panic, and never a queue sized from the input past memory. The
// seeds run as ordinary tests.
func FuzzConfigJSON(f *testing.F) {
	seed := func(cfg config.System) {
		raw, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(config.Scaled8())
	seed(config.MeshScaled(2, 2))
	noc := config.Scaled8()
	noc.ModelNoC = true
	seed(noc)
	hostile := config.Scaled8()
	hostile.DRAM.FrontReadQ = 1 << 40
	seed(hostile)
	hostile = config.Scaled8()
	hostile.DRAM.FrontReadQ, hostile.DRAM.FrontWriteQ = 1<<33, 1<<33
	seed(hostile)
	hostile = config.Scaled8()
	hostile.L3SliceBytes = 1000 // not a whole number of sets
	seed(hostile)
	hostile = config.Scaled8()
	hostile.L1Bytes, hostile.L1Ways = 32<<10, 512 // one set, wider than the rank field holds
	seed(hostile)
	f.Add([]byte(`{"MeshCols":1,"MeshRows":1}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var cfg config.System
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(&cfg) != nil {
			return
		}
		if _, err := dec.Token(); err != io.EOF {
			return
		}
		if cfg.Validate() != nil || !fuzzSized(&cfg) {
			return
		}
		reg := qos.NewRegistry()
		c, err := reg.Add("c", 1, cfg.L3Ways)
		if err != nil {
			return
		}
		sys, err := New(cfg, reg, qospolicy.PABST)
		if err != nil {
			return
		}
		if err := sys.Attach(0, c.ID, workload.NewStream("s", tileRegion(0), 128, false)); err != nil {
			return
		}
		if err := sys.Finalize(); err != nil {
			return
		}
		sys.Run(2000)
	})
}
