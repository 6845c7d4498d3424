// Package plot renders paper-style figures as standalone SVG strings: a
// single-axis time-series line chart (queue depth over time, DRE register
// trajectories — the shapes of Figures 4 and 12) and a CDF chart
// (throughput imbalance, queue-depth distributions — Figures 12 and 11b).
//
// The congaplot CLI draws with it. It depends on nothing but the standard
// library and takes its input as plain [][2]float64 point lists.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one named line on a chart. For Line, Points are
// (time_ns, value); for CDF, (value, cumulative fraction in [0,1]).
type Series struct {
	Name   string
	Unit   string
	Points [][2]float64
}

// Spec is the chart frame.
type Spec struct {
	Title   string
	Width   int
	Height  int
	Dropped int // series cut by the palette cap, shown on the figure
}

// The categorical palette, assigned to series in fixed name order — a
// filter that changes which series are selected never repaints the
// survivors' identity within one invocation, and the hue order itself is
// never cycled or generated. MaxSeries is a hard readability cap; the
// caller reports how many series were dropped on the figure itself.
var palette = []string{
	"#2a78d6", "#eb6834", "#1baf7a", "#eda100",
	"#e87ba4", "#008300", "#4a3aa7", "#e34948",
}

// MaxSeries is the palette width: the most series one chart will draw.
const MaxSeries = 8

// Chart ink: text wears text tokens, never series colors.
const (
	surface   = "#fcfcfb"
	inkText   = "#0b0b0b"
	inkMuted  = "#52514e"
	inkGrid   = "#e8e7e3"
	inkAxis   = "#c9c8c4"
	maxPoints = 2000 // per-series polyline budget; beyond it, stride-decimate
)

// Line draws a single-axis time-series line chart of the series as a
// standalone SVG. Points are (time_ns, value); all series share one unit.
func Line(list []Series, spec Spec) string {
	// Data extent across every series.
	tMin, tMax := math.Inf(1), math.Inf(-1)
	vMin, vMax := math.Inf(1), math.Inf(-1)
	for _, s := range list {
		for _, p := range s.Points {
			tMin, tMax = math.Min(tMin, p[0]), math.Max(tMax, p[0])
			vMin, vMax = math.Min(vMin, p[1]), math.Max(vMax, p[1])
		}
	}
	if tMax <= tMin {
		tMax = tMin + 1
	}
	// Magnitude charts anchor at zero unless the data goes negative.
	if vMin > 0 {
		vMin = 0
	}
	if vMax <= vMin {
		vMax = vMin + 1
	}

	tUnit, tDiv := timeUnit(tMax - tMin)
	yTicks := niceTicks(vMin, vMax, 5)
	vMin, vMax = yTicks[0], yTicks[len(yTicks)-1]
	xTicks := niceTicks(tMin/tDiv, tMax/tDiv, 6)

	f := frame{
		spec: spec, list: list,
		xMin: tMin, xMax: tMax, yMin: vMin, yMax: vMax,
		xTicks: xTicks, xDiv: tDiv, yTicks: yTicks,
		xLabel: fmt.Sprintf("sim time (%s)", tUnit),
		sub:    yAxisLabel(list[0].Unit),
		yFmt:   fmtVal,
	}
	return f.draw()
}

// CDF draws a cumulative-distribution chart: x is the measured value (in
// the series' unit), y is the cumulative fraction on a fixed [0,1] axis.
func CDF(list []Series, spec Spec) string {
	xMin, xMax := math.Inf(1), math.Inf(-1)
	for _, s := range list {
		for _, p := range s.Points {
			xMin, xMax = math.Min(xMin, p[0]), math.Max(xMax, p[0])
		}
	}
	if xMin > 0 && xMin <= (xMax-xMin) {
		xMin = 0 // anchor at zero when the data starts near it
	}
	if xMax <= xMin {
		xMax = xMin + 1
	}
	xTicks := niceTicks(xMin, xMax, 6)
	xMin, xMax = xTicks[0], xTicks[len(xTicks)-1]

	xLabel := list[0].Unit
	if xLabel == "" {
		xLabel = "value"
	}
	f := frame{
		spec: spec, list: list,
		xMin: xMin, xMax: xMax, yMin: 0, yMax: 1,
		xTicks: xTicks, xDiv: 1,
		yTicks: []float64{0, 0.25, 0.5, 0.75, 1},
		xLabel: xLabel,
		sub:    "cumulative fraction",
		yFmt:   func(v float64) string { return trimZero(fmt.Sprintf("%.2f", v)) },
	}
	return f.draw()
}

// frame is the shared chart skeleton: axes, grid, series polylines,
// legend and direct end-of-line labels. Line and CDF differ only in how
// they derive the axis extents, tick sets and labels.
type frame struct {
	spec                   Spec
	list                   []Series
	xMin, xMax, yMin, yMax float64
	xTicks                 []float64 // in display units (already divided by xDiv)
	xDiv                   float64   // raw-x per display-x (1e6 for ms, 1 for CDF)
	yTicks                 []float64
	xLabel, sub            string
	yFmt                   func(float64) string
}

func (f *frame) draw() string {
	list, spec := f.list, f.spec
	directLabels := len(list) >= 2 && len(list) <= 4
	marginL, marginR, marginT, marginB := 64.0, 20.0, 60.0, 44.0
	if directLabels {
		longest := 0
		for _, s := range list {
			if len(s.Name) > longest {
				longest = len(s.Name)
			}
		}
		marginR += math.Min(float64(longest)*6.6, 180)
	}
	w, h := float64(spec.Width), float64(spec.Height)
	plotW, plotH := w-marginL-marginR, h-marginT-marginB

	x := func(t float64) float64 { return marginL + (t-f.xMin)/(f.xMax-f.xMin)*plotW }
	y := func(v float64) float64 { return marginT + (1-(v-f.yMin)/(f.yMax-f.yMin))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="system-ui, -apple-system, sans-serif">`+"\n",
		spec.Width, spec.Height, spec.Width, spec.Height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", spec.Width, spec.Height, surface)

	// Title and subtitle (unit, plus the dropped-series note — visible, not
	// a silent cap).
	fmt.Fprintf(&b, `<text x="%.0f" y="24" font-size="16" font-weight="600" fill="%s">%s</text>`+"\n",
		marginL, inkText, esc(spec.Title))
	sub := f.sub
	if spec.Dropped > 0 {
		sub += fmt.Sprintf(" — %d more series not shown (narrow -series)", spec.Dropped)
	}
	fmt.Fprintf(&b, `<text x="%.0f" y="42" font-size="12" fill="%s">%s</text>`+"\n",
		marginL, inkMuted, esc(sub))

	// Recessive horizontal grid with y tick labels; one baseline axis.
	for _, tv := range f.yTicks {
		yy := y(tv)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1"/>`+"\n",
			marginL, yy, marginL+plotW, yy, inkGrid)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="%s" text-anchor="end">%s</text>`+"\n",
			marginL-8, yy+4, inkMuted, esc(f.yFmt(tv)))
	}
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1"/>`+"\n",
		marginL, marginT+plotH, marginL+plotW, marginT+plotH, inkAxis)
	for _, tv := range f.xTicks {
		xx := x(tv * f.xDiv)
		if xx < marginL-0.5 || xx > marginL+plotW+0.5 {
			continue
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="%s" text-anchor="middle">%s</text>`+"\n",
			xx, marginT+plotH+18, inkMuted, esc(fmtVal(tv)))
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="12" fill="%s" text-anchor="middle">%s</text>`+"\n",
		marginL+plotW/2, h-10, inkMuted, esc(f.xLabel))

	// Series lines: 2px, round joins, native <title> tooltips.
	for i, s := range list {
		color := palette[i%len(palette)]
		pts := decimate(s.Points, maxPoints)
		var path strings.Builder
		for j, p := range pts {
			cmd := 'L'
			if j == 0 {
				cmd = 'M'
			}
			fmt.Fprintf(&path, "%c%.1f %.1f", cmd, x(p[0]), y(p[1]))
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"><title>%s</title></path>`+"\n",
			path.String(), color, esc(s.Name))
	}

	// Direct end-of-line labels for up to 4 series, nudged apart so they
	// never overlap; identity is carried by a colored tick beside muted
	// text, not by coloring the text itself.
	if directLabels {
		type endLab struct {
			name  string
			color string
			yPos  float64
		}
		labs := make([]endLab, len(list))
		for i, s := range list {
			last := s.Points[len(s.Points)-1]
			labs[i] = endLab{s.Name, palette[i%len(palette)], y(last[1])}
		}
		sort.Slice(labs, func(i, j int) bool { return labs[i].yPos < labs[j].yPos })
		for i := 1; i < len(labs); i++ {
			if labs[i].yPos-labs[i-1].yPos < 14 {
				labs[i].yPos = labs[i-1].yPos + 14
			}
		}
		for _, l := range labs {
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`+"\n",
				marginL+plotW+4, l.yPos, marginL+plotW+14, l.yPos, l.color)
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="%s">%s</text>`+"\n",
				marginL+plotW+18, l.yPos+4, inkMuted, esc(l.name))
		}
	}

	// Legend: always present for >= 2 series (a single series is named by
	// the title), one horizontal row above the plot.
	if len(list) >= 2 {
		lx := marginL
		ly := marginT - 8
		for i, s := range list {
			color := palette[i%len(palette)]
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="3"/>`+"\n",
				lx, ly-4, lx+14, ly-4, color)
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="%s">%s</text>`+"\n",
				lx+18, ly, inkMuted, esc(s.Name))
			lx += 24 + float64(len(s.Name))*6.6
			if lx > marginL+plotW-80 && i < len(list)-1 {
				break // remaining names are on the direct labels / tooltips
			}
		}
	}

	b.WriteString("</svg>\n")
	return b.String()
}

// decimate strides the points down to at most budget, always keeping the
// first and last point.
func decimate(pts [][2]float64, budget int) [][2]float64 {
	if len(pts) <= budget {
		return pts
	}
	stride := (len(pts) + budget - 1) / budget
	out := make([][2]float64, 0, budget+1)
	for i := 0; i < len(pts); i += stride {
		out = append(out, pts[i])
	}
	if out[len(out)-1] != pts[len(pts)-1] {
		out = append(out, pts[len(pts)-1])
	}
	return out
}

// timeUnit picks the display unit so the span reads in small numbers.
func timeUnit(spanNs float64) (string, float64) {
	switch {
	case spanNs >= 2e9:
		return "s", 1e9
	case spanNs >= 2e6:
		return "ms", 1e6
	case spanNs >= 2e3:
		return "µs", 1e3
	default:
		return "ns", 1
	}
}

// niceTicks returns ~n round-number ticks spanning [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if hi <= lo {
		hi = lo + 1
	}
	step := niceStep((hi - lo) / float64(n))
	start := math.Floor(lo/step) * step
	var out []float64
	for v := start; v < hi+step/2; v += step {
		out = append(out, v)
	}
	return out
}

// niceStep rounds a raw step up to 1, 2, 2.5 or 5 times a power of ten.
func niceStep(raw float64) float64 {
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	switch frac := raw / mag; {
	case frac <= 1:
		return mag
	case frac <= 2:
		return 2 * mag
	case frac <= 2.5:
		return 2.5 * mag
	case frac <= 5:
		return 5 * mag
	default:
		return 10 * mag
	}
}

// fmtVal renders an axis value compactly with an SI suffix.
func fmtVal(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e9:
		return trimZero(fmt.Sprintf("%.2f", v/1e9)) + "G"
	case av >= 1e6:
		return trimZero(fmt.Sprintf("%.2f", v/1e6)) + "M"
	case av >= 1e3:
		return trimZero(fmt.Sprintf("%.2f", v/1e3)) + "k"
	case av < 0.01:
		return fmt.Sprintf("%.2g", v)
	default:
		return trimZero(fmt.Sprintf("%.2f", v))
	}
}

func trimZero(s string) string {
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func yAxisLabel(unit string) string {
	if unit == "" {
		return "value"
	}
	return unit
}

// esc escapes text for SVG content.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
