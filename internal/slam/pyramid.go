package slam

import (
	"math"

	"adsim/internal/img"
)

// PyramidConfig parameterizes multi-scale feature extraction. ORB detects
// on an image pyramid (canonically 8 levels at scale factor 1.2) so that
// features match across the scale changes forward motion produces — the
// same structure the paper's FPGA/ASIC FE designs process.
type PyramidConfig struct {
	// Levels is the number of pyramid levels (1 = single scale).
	Levels int
	// ScaleFactor is the downscale ratio between consecutive levels.
	ScaleFactor float64
}

// DefaultPyramidConfig returns ORB's canonical pyramid: 8 levels at 1.2.
func DefaultPyramidConfig() PyramidConfig {
	return PyramidConfig{Levels: 8, ScaleFactor: 1.2}
}

func (c PyramidConfig) normalized() PyramidConfig {
	if c.Levels < 1 {
		c.Levels = 1
	}
	if c.ScaleFactor <= 1 {
		c.ScaleFactor = 1.2
	}
	return c
}

// LevelScale returns the absolute scale of pyramid level l (level 0 is 1).
func (c PyramidConfig) LevelScale(l int) float64 {
	return math.Pow(c.normalized().ScaleFactor, float64(l))
}

// ExtractFeaturesPyramid runs the FE stage over an image pyramid: each
// level is smoothed, FAST-detected and rBRIEF-described at its own
// resolution; keypoint coordinates are mapped back to level-0 pixels and
// tagged with their level. The per-level feature budget shrinks with level
// area, as ORB distributes it.
func ExtractFeaturesPyramid(frame *img.Gray, fastCfg FASTConfig, pyrCfg PyramidConfig) ([]Keypoint, []Descriptor) {
	return extractPyramid(frame, fastCfg, pyrCfg, &FEScratch{})
}

// extractPyramid is ExtractFeaturesPyramid with every level's intermediates
// in s, one scratch reused across levels; only the returned keypoints and
// descriptors are freshly allocated, each at its exact size.
func extractPyramid(frame *img.Gray, fastCfg FASTConfig, pyrCfg PyramidConfig, s *FEScratch) ([]Keypoint, []Descriptor) {
	pyrCfg = pyrCfg.normalized()
	if pyrCfg.Levels == 1 {
		return ExtractFeaturesScratch(frame, fastCfg, s)
	}

	// detectFAST reuses s.kps, so the levels accumulate in s.pyrKps.
	kps, descs := s.pyrKps[:0], s.pyrDescs[:0]
	level := frame
	for l := 0; l < pyrCfg.Levels; l++ {
		scale := pyrCfg.LevelScale(l)
		if l > 0 {
			w := int(float64(frame.W) / scale)
			h := int(float64(frame.H) / scale)
			if w < 4*fastCfg.Border || h < 4*fastCfg.Border {
				break // level too small to host features
			}
			level = frame.ResizeInto(&s.level, w, h)
		}
		cfg := fastCfg
		if fastCfg.MaxFeatures > 0 {
			// Budget proportional to level area (geometric decay).
			cfg.MaxFeatures = int(float64(fastCfg.MaxFeatures) / (scale * scale))
			if cfg.MaxFeatures < 8 {
				cfg.MaxFeatures = 8
			}
		}
		smoothed := level.BoxBlurInto(&s.smoothed, &s.integral, 1)
		for _, kp := range detectFAST(smoothed, cfg, s) {
			descs = append(descs, Compute(smoothed, kp))
			kp.Level = l
			kp.X = int(float64(kp.X) * scale)
			kp.Y = int(float64(kp.Y) * scale)
			kps = append(kps, kp)
		}
	}
	s.pyrKps, s.pyrDescs = kps, descs
	if len(kps) == 0 {
		return nil, nil
	}
	return cloneKeypoints(kps), append(make([]Descriptor, 0, len(descs)), descs...)
}
