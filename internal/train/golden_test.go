package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"gnnlab/internal/workload"
)

// goldenRuns pins, per model kind, the exact bits a small Train run
// produces: FNV-64a over the loss/accuracy history and over the
// checkpoint bytes. The constants were recorded at commit de20200 — before
// the dead-gradient elimination and the register-blocked kernels — and
// every later kernel or backward-pass change must reproduce them: moving
// one means a float fold order moved, which is a re-baselining decision
// (DESIGN.md "The training path"), not a refactor.
var goldenRuns = []struct {
	name                string
	opts                Options
	history, checkpoint uint64
}{
	{"gcn", Options{Model: workload.GCN}, 0x984ee9255a5981af, 0x95093af0e547397e},
	{"graphsage", Options{Model: workload.GraphSAGE}, 0xfe3c632222ff710c, 0x41b1c379329a6a1f},
	{"pinsage", Options{Model: workload.PinSAGE}, 0x564ca755a4e52011, 0x692b5561dc2baeda},
	{"gat", Options{Model: workload.GAT}, 0x3f437d5a8ca30e07, 0x0e75312e7814c3e9},
	{"gcn-factored", Options{Model: workload.GCN, NumTrainers: 2, NumSamplers: 2, CacheRatio: 0.05}, 0xbb842b865a8e6b3f, 0xcb4037d3e6f6ed8a},
}

func TestGoldenRuns(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("constants recorded on amd64; architectures that fuse x*y+z round differently")
	}
	d := convDataset(t)
	for _, g := range goldenRuns {
		opts := g.opts
		opts.TargetAccuracy = 2 // unreachable: both epochs run
		opts.MaxEpochs = 2
		opts.EvalSize = 200
		opts.Seed = 42
		res, err := Train(d, opts)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		hist := fnv.New64a()
		for _, e := range res.History {
			var buf [16]byte
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(e.Loss))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.EvalAcc))
			hist.Write(buf[:])
		}
		ckpt := fnv.New64a()
		if err := res.Model.SaveCheckpoint(ckpt); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if h, c := hist.Sum64(), ckpt.Sum64(); h != g.history || c != g.checkpoint {
			t.Errorf("%s: history %#x checkpoint %#x, golden %#x %#x", g.name, h, c, g.history, g.checkpoint)
		}
	}
}
