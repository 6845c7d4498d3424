package telemetry

import (
	"cmp"
	"fmt"
	"html"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"conga/internal/plot"
)

// dashboard renders the browsable page: the run table, with each finished
// run's flushed files, and the selected run's (sel; "" = the first) latest
// sink files drawn server-side by internal/plot — its series one chart per
// unit, so bytes and bits/s never share an axis, its path load heatmap and
// its counters. A live run's page reloads itself.
func (h *Hub) dashboard(w http.ResponseWriter, sel string, runs []hubRun, done bool) {
	if sel == "" && len(runs) > 0 {
		sel = runs[0].Name
	}
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8"><title>conga live telemetry</title><style>` +
		`body{font-family:system-ui,sans-serif;margin:24px;background:#fcfcfb}h1{font-size:20px}h2{font-size:15px}` +
		`table{border-collapse:collapse;font-size:13px}td,th{padding:3px 12px 3px 0;text-align:left;border-bottom:1px solid #e8e7e3}` +
		`a{color:#2a78d6;text-decoration:none}.cur{font-weight:600}.muted{color:#52514e}svg{margin:8px 16px 8px 0}` +
		`</style></head><body><h1>conga live telemetry</h1>`)

	// Run table; the selected run is bold, the rest link to themselves, and
	// a finished run links its flushed telemetry.
	b.WriteString(`<table><tr><th>run</th><th>sim time</th><th>flows</th><th>events</th><th>state</th>` +
		`<th>flushed telemetry</th></tr>`)
	for _, rj := range runs {
		s, name, state := cmp.Or(rj.Snapshot, &Snapshot{}), html.EscapeString(rj.Name), "running"
		if s.Done {
			state = "done"
		}
		cell := fmt.Sprintf(`<a href="/?run=%s">%s</a>`, url.QueryEscape(rj.Name), name)
		if rj.Name == sel {
			cell = `<span class="cur">` + name + `</span>`
		}
		var links []string
		for _, f := range rj.Files {
			links = append(links, fmt.Sprintf(`<a href="/files/%s/%s">%s</a>`,
				url.PathEscape(rj.Name), url.PathEscape(f), html.EscapeString(f)))
		}
		fmt.Fprintf(&b, `<tr><td>%s</td><td>%v</td><td>%d / %d</td><td>%d</td><td>%s</td><td>%s</td></tr>`, cell,
			time.Duration(s.SimTime), s.Progress.FlowsCompleted, s.Progress.FlowsGenerated, s.Progress.Events, state, strings.Join(links, " · "))
	}
	b.WriteString(`</table>`)

	reload := !done
	if s := h.Run(sel).Load(); s != nil {
		name := html.EscapeString(sel)
		fmt.Fprintf(&b, `<h2>%s — series</h2>`, name)
		var series []plot.Series
		var paths, counters *SinkFile
		for _, f := range s.Files {
			switch {
			case f.Table == SeriesTable && len(f.Points) > 0:
				series = append(series, f.PlotSeries())
			case f.Table == PathTable:
				paths = f
			case f.Table == CounterTable:
				counters = f
			}
		}
		slices.SortFunc(series, func(x, y plot.Series) int {
			return cmp.Or(strings.Compare(x.Unit, y.Unit), strings.Compare(x.Name, y.Name))
		})
		for len(series) > 0 {
			n := 1
			for n < len(series) && series[n].Unit == series[0].Unit {
				n++
			}
			dropped := max(0, n-plot.MaxSeries)
			b.WriteString(plot.Line(series[:n-dropped], plot.Spec{Title: cmp.Or(series[0].Unit, "series"),
				Width: 640, Height: 320, Dropped: dropped}))
			series = series[n:]
		}
		if svg := paths.PathHeatmap("", 640); svg != "" {
			fmt.Fprintf(&b, `<h2>%s — path load</h2>%s`, name, svg)
		}
		if counters != nil && len(counters.Counters) > 0 {
			fmt.Fprintf(&b, `<h2>%s — counters</h2><table><tr><th>group</th><th>name</th><th>counter</th><th>value</th></tr>`, name)
			for _, c := range counters.Counters {
				fmt.Fprintf(&b, `<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td></tr>`,
					html.EscapeString(c.Group), html.EscapeString(c.Name), html.EscapeString(c.Counter), c.Value)
			}
			b.WriteString(`</table>`)
		}
		reload = !s.Done
	}
	b.WriteString(`<p class="muted">sink NDJSON: <a href="/counters">/counters</a> · <a href="/paths">/paths</a> · ` +
		`<a href="/series">/series</a> · SSE: <a href="/stream">/stream</a> · figures also via: congaplot -url http://&lt;addr&gt;</p>`)
	if reload {
		// Reload every 2 s while the run is live; a finished page stays put.
		b.WriteString(`<script>setTimeout(function(){location.reload()},2000)</script>`)
	}
	b.WriteString(`</body></html>`)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}
