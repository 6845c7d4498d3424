package plot

import (
	"fmt"
	"math"
	"strings"
)

// HeatmapSpec is the input to Heatmap: a dense matrix of non-negative
// values with row and column labels. Values[r][c] belongs to RowLabels[r]
// and ColLabels[c]; rows shorter than ColLabels read as zero.
type HeatmapSpec struct {
	Title     string
	Subtitle  string
	Width     int
	Unit      string // shown on the color scale
	RowLabels []string
	ColLabels []string
	Values    [][]float64
}

// Heatmap draws a matrix heatmap as a standalone SVG: one shaded cell per
// (row, column) with its value printed when the cell is large enough, and
// a min→max color scale. It shares the line/CDF charts' ink so the
// figures read as one family. Intended for the decision plane's path
// utilization matrix (rows = source uplinks, columns = destination
// leaves), but takes any labeled matrix.
func Heatmap(spec HeatmapSpec) string {
	if spec.Width <= 0 {
		spec.Width = 720
	}
	// The height grows with the row count so tall matrices stay readable.
	height := 120 + 28*len(spec.RowLabels) + 40
	rows, cols := len(spec.RowLabels), len(spec.ColLabels)
	vMax := 0.0
	for _, row := range spec.Values {
		for _, v := range row {
			vMax = math.Max(vMax, v)
		}
	}

	longest := 0
	for _, l := range spec.RowLabels {
		if len(l) > longest {
			longest = len(l)
		}
	}
	marginL := math.Max(64, 16+float64(longest)*6.6)
	marginR, marginT, marginB := 20.0, 78.0, 40.0
	w, h := float64(spec.Width), float64(height)
	plotW, plotH := w-marginL-marginR, h-marginT-marginB
	cellW, cellH := plotW/math.Max(1, float64(cols)), plotH/math.Max(1, float64(rows))

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="system-ui, -apple-system, sans-serif">`+"\n",
		spec.Width, height, spec.Width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", spec.Width, height, surface)
	fmt.Fprintf(&b, `<text x="%.0f" y="24" font-size="16" font-weight="600" fill="%s">%s</text>`+"\n",
		marginL, inkText, esc(spec.Title))
	if spec.Subtitle != "" {
		fmt.Fprintf(&b, `<text x="%.0f" y="42" font-size="12" fill="%s">%s</text>`+"\n",
			marginL, inkMuted, esc(spec.Subtitle))
	}

	// Color scale: surface → the palette's lead blue, with a legend bar.
	scaleW := math.Min(180, plotW/2)
	sx := marginL + plotW - scaleW
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, `<rect x="%.1f" y="52" width="%.1f" height="8" fill="%s"/>`+"\n",
			sx+float64(i)*scaleW/32, scaleW/32+0.5, heatColor(float64(i)/31))
	}
	unit := spec.Unit
	if unit != "" {
		unit = " " + unit
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="70" font-size="10" fill="%s">0%s</text>`+"\n", sx, inkMuted, esc(unit))
	fmt.Fprintf(&b, `<text x="%.1f" y="70" font-size="10" fill="%s" text-anchor="end">%s%s</text>`+"\n",
		sx+scaleW, inkMuted, esc(fmtVal(vMax)), esc(unit))

	for r := 0; r < rows; r++ {
		yy := marginT + float64(r)*cellH
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="%s" text-anchor="end">%s</text>`+"\n",
			marginL-8, yy+cellH/2+4, inkMuted, esc(spec.RowLabels[r]))
		for c := 0; c < cols; c++ {
			v := 0.0
			if r < len(spec.Values) && c < len(spec.Values[r]) {
				v = spec.Values[r][c]
			}
			frac := 0.0
			if vMax > 0 {
				frac = v / vMax
			}
			xx := marginL + float64(c)*cellW
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="%s" stroke-width="1"><title>%s → %s: %s%s</title></rect>`+"\n",
				xx, yy, cellW, cellH, heatColor(frac), surface,
				esc(spec.RowLabels[r]), esc(spec.ColLabels[c]), esc(fmtVal(v)), esc(unit))
			if cellW >= 46 && cellH >= 16 {
				ink := inkMuted
				if frac > 0.6 {
					ink = surface // light text on dark cells
				}
				fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="10" fill="%s" text-anchor="middle">%s</text>`+"\n",
					xx+cellW/2, yy+cellH/2+4, ink, esc(fmtVal(v)))
			}
		}
	}
	for c := 0; c < cols; c++ {
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="%s" text-anchor="middle">%s</text>`+"\n",
			marginL+(float64(c)+0.5)*cellW, marginT+plotH+16, inkMuted, esc(spec.ColLabels[c]))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// heatColor maps frac in [0,1] onto the surface→blue ramp used by Heatmap.
func heatColor(frac float64) string {
	frac = math.Max(0, math.Min(1, frac))
	// surface #fcfcfb → palette[0] #2a78d6, linear in sRGB.
	lerp := func(a, b float64) int { return int(a + (b-a)*frac) }
	return fmt.Sprintf("#%02x%02x%02x",
		lerp(0xfc, 0x2a), lerp(0xfc, 0x78), lerp(0xfb, 0xd6))
}
