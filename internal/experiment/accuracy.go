package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/detect"
	"adsim/internal/img"
	"adsim/internal/scene"
)

func init() { register("accuracy", runAccuracy) }

// AccuracyRow is one resolution's functional detection quality.
type AccuracyRow struct {
	Res accel.Resolution
	// Recall over ALL ground-truth objects in view (IoU ≥ 0.5 against a
	// detection). The truth set is identical across resolutions (same
	// world), so recall is directly comparable: low resolutions lose the
	// distant objects to sub-pixel extents.
	Recall float64
	// MaxRangeM is the depth of the farthest object detected (m) — higher
	// resolutions resolve more distant objects.
	MaxRangeM float64
	// Truths is the number of ground-truth objects evaluated.
	Truths int
}

// AccuracyResult is an extension experiment that measures the premise of
// the paper's Fig 13 ("increasing camera resolution can significantly
// boost the accuracy"): the same scenario rendered at each sweep
// resolution, scored with the reference detector against pixel-exact
// ground truth. Detection range grows with resolution — distant vehicles
// subtend too few pixels at HHD to detect at all — which is exactly why
// the paper asks whether the platforms can sustain higher resolutions.
type AccuracyResult struct {
	Rows []AccuracyRow
}

func (r AccuracyResult) Render() string {
	var b strings.Builder
	b.WriteString(header("accuracy", "Detection quality vs. camera resolution (extension)"))
	fmt.Fprintf(&b, "%-14s %10s %12s %10s\n", "Resolution", "recall", "max range", "truths")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %9.1f%% %10.1f m %10d\n",
			row.Res.Name, 100*row.Recall, row.MaxRangeM, row.Truths)
	}
	b.WriteString("\nHigher resolutions resolve more distant objects (a ~20x20-pixel\n")
	b.WriteString("detection floor reaches further in meters), improving recall until the\n")
	b.WriteString("scenario's object distribution saturates — the accuracy incentive\n")
	b.WriteString("behind the paper's Fig 13 question of sustaining QHD compute.\n")
	return b.String()
}

func runAccuracy(opts Options) (Result, error) {
	var rows []AccuracyRow
	for _, res := range accel.SweepResolutions() {
		cfg := scene.DefaultConfig(scene.Urban)
		cfg.Width, cfg.Height = res.W, res.H
		cfg.Seed = opts.Seed
		gen, err := scene.New(cfg)
		if err != nil {
			return nil, err
		}
		// Real detection networks cannot resolve objects below roughly
		// 20x20 input pixels (the reason higher-resolution cameras buy
		// accuracy at range); the reference detector models that with a
		// fixed minimum box area in frame pixels.
		det, err := detect.New(detect.Config{
			InputSize:     64,
			ConfThreshold: 0.3,
			NMSThreshold:  0.45,
			MinBoxPixels:  400,
			RunDNN:        false, // functional quality only
		})
		if err != nil {
			return nil, err
		}
		row := AccuracyRow{Res: res}
		matched := 0
		for i := 0; i < opts.NativeFrames; i++ {
			frame := gen.Step()
			dets := det.Detect(frame.Image)
			for _, truth := range frame.Truth {
				row.Truths++
				if bestIoU(dets, truth.Box) >= 0.5 {
					matched++
					if truth.Depth > row.MaxRangeM {
						row.MaxRangeM = truth.Depth
					}
				}
			}
		}
		if row.Truths > 0 {
			row.Recall = float64(matched) / float64(row.Truths)
		}
		rows = append(rows, row)
	}
	return AccuracyResult{Rows: rows}, nil
}

func bestIoU(dets []detect.Detection, truth img.Rect) float64 {
	best := 0.0
	for _, d := range dets {
		if iou := d.Box.IoU(truth); iou > best {
			best = iou
		}
	}
	return best
}
