package gen

import "fmt"

// Preset names follow the paper's dataset abbreviations. Each preset is a
// 1/100-scale analogue (see DESIGN.md): vertex and edge counts divide the
// original by ~100 while feature dimensions and training-set fractions are
// kept, so every capacity ratio (Vol_G / GPU memory, cache ratio, |TS|/|V|)
// matches the paper when paired with the 1/100-scaled GPU of
// internal/device.
const (
	PresetPR = "PR" // ogbn-products analogue
	PresetTW = "TW" // Twitter analogue
	PresetPA = "PA" // ogbn-papers100M analogue
	PresetUK = "UK" // uk-2006 analogue
	// PresetConv is the small labelled community graph used for real
	// training in the convergence experiment (Fig 16).
	PresetConv = "CONV"
)

// presetConfigs returns the canonical Config for each named preset.
func presetConfigs() map[string]Config {
	return map[string]Config{
		PresetPR: {
			Name: PresetPR, Kind: KindCoPurchase,
			NumVertices: 24_000, NumEdges: 1_240_000,
			FeatureDim: 100, TrainFraction: 0.082, // 197K / 2.4M
			Weighted: true, Seed: 0xA11CE,
		},
		PresetTW: {
			Name: PresetTW, Kind: KindSocial,
			NumVertices: 417_000, NumEdges: 15_000_000,
			FeatureDim: 256, TrainFraction: 0.010, // 417K / 41.7M
			Weighted: true, Seed: 0xB0B,
		},
		PresetPA: {
			Name: PresetPA, Kind: KindCitation,
			NumVertices: 1_110_000, NumEdges: 16_000_000,
			FeatureDim: 128, TrainFraction: 0.011, // 1.2M / 111M
			Weighted: true, Seed: 0xCAFE,
		},
		PresetUK: {
			Name: PresetUK, Kind: KindWeb,
			NumVertices: 777_000, NumEdges: 30_000_000,
			FeatureDim: 256, TrainFraction: 0.0129, // 1.0M / 77.7M
			Weighted: true, Seed: 0xDEED,
		},
		PresetConv: {
			Name: PresetConv, Kind: KindCommunity,
			NumVertices: 12_000, NumEdges: 240_000,
			FeatureDim: 64, TrainFraction: 0.25,
			NumClasses: 8, MaterializeFeatures: true,
			Weighted: false, Seed: 0xFEED,
		},
	}
}

// PresetConfig returns the Config of a named preset.
func PresetConfig(name string) (Config, error) {
	cfg, ok := presetConfigs()[name]
	if !ok {
		return Config{}, fmt.Errorf("gen: unknown preset %q", name)
	}
	return cfg, nil
}

// PresetNames returns the evaluation dataset names in paper order
// (PR, TW, PA, UK); the convergence preset is excluded.
func PresetNames() []string { return []string{PresetPR, PresetTW, PresetPA, PresetUK} }

// ScaleDown returns a copy of cfg shrunk by factor (vertices and edges
// divided, everything else kept). Used by tests and quick benchmarks that
// cannot afford the full 1/100-scale presets.
func ScaleDown(cfg Config, factor int) Config {
	if factor <= 1 {
		return cfg
	}
	cfg.Name = fmt.Sprintf("%s/%d", cfg.Name, factor)
	cfg.NumVertices /= factor
	cfg.NumEdges /= int64(factor)
	if cfg.NumVertices < 64 {
		cfg.NumVertices = 64
	}
	if cfg.NumEdges < 256 {
		cfg.NumEdges = 256
	}
	return cfg
}
