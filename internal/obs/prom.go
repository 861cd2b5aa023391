package obs

import (
	"bufio"
	"io"
	gort "runtime"
	"sort"
	"strconv"
	"strings"
)

// expositionContentType is the Prometheus text format 0.0.4 media type.
const expositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// collector renders one or more complete metric families (HELP/TYPE
// header plus series lines) into the exposition.
type collector interface {
	expose(w *bufio.Writer)
}

// WriteText renders every registered family, sorted by family name, as
// the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	cols := make([]collector, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		cols = append(cols, r.families[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, c := range cols {
		c.expose(bw)
	}
	return bw.Flush()
}

func writeHeader(w *bufio.Writer, name, help, typ string) {
	w.WriteString("# HELP ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(help))
	w.WriteByte('\n')
	w.WriteString("# TYPE ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(typ)
	w.WriteByte('\n')
}

// writeSeries emits one sample line: name{labels} value. extra holds a
// trailing label (the histogram "le") appended after the vec labels.
func writeSeries(w *bufio.Writer, name string, labels, values []string, extraLabel, extraValue, value string) {
	w.WriteString(name)
	if len(labels) > 0 || extraLabel != "" {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(l)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		if extraLabel != "" {
			if len(labels) > 0 {
				w.WriteByte(',')
			}
			w.WriteString(extraLabel)
			w.WriteString(`="`)
			w.WriteString(extraValue)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

type counterFamily struct {
	name, help string
	get        func() uint64
}

func (f *counterFamily) expose(w *bufio.Writer) {
	writeHeader(w, f.name, f.help, "counter")
	writeSeries(w, f.name, nil, nil, "", "", formatUint(f.get()))
}

type counterVecFamily struct {
	name, help string
	labels     []string
	v          *CounterVec
}

func (f *counterVecFamily) expose(w *bufio.Writer) {
	writeHeader(w, f.name, f.help, "counter")
	f.v.Do(func(values []string, c *Counter) {
		writeSeries(w, f.name, f.labels, values, "", "", formatUint(c.Value()))
	})
}

type gaugeFamily struct {
	name, help string
	get        func() float64
}

func (f *gaugeFamily) expose(w *bufio.Writer) {
	writeHeader(w, f.name, f.help, "gauge")
	writeSeries(w, f.name, nil, nil, "", "", formatFloat(f.get()))
}

type gaugeVecFamily struct {
	name, help string
	labels     []string
	v          *GaugeVec
}

func (f *gaugeVecFamily) expose(w *bufio.Writer) {
	writeHeader(w, f.name, f.help, "gauge")
	f.v.Do(func(values []string, g *Gauge) {
		writeSeries(w, f.name, f.labels, values, "", "", formatFloat(g.Value()))
	})
}

type histogramFamily struct {
	name, help string
	labels     []string // nil for the scalar form
	one        *Histogram
	v          *HistogramVec
}

func (f *histogramFamily) expose(w *bufio.Writer) {
	writeHeader(w, f.name, f.help, "histogram")
	if f.one != nil {
		f.exposeOne(w, nil, f.one)
		return
	}
	f.v.Do(func(values []string, h *Histogram) {
		f.exposeOne(w, values, h)
	})
}

func (f *histogramFamily) exposeOne(w *bufio.Writer, values []string, h *Histogram) {
	counts := h.BucketCounts()
	bounds := h.bounds
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = formatFloat(bounds[i])
		}
		writeSeries(w, f.name+"_bucket", f.labels, values, "le", le, formatUint(cum))
	}
	writeSeries(w, f.name+"_sum", f.labels, values, "", "", formatFloat(h.Sum()))
	writeSeries(w, f.name+"_count", f.labels, values, "", "", formatUint(cum))
}

// runtimeCollector exposes the Go runtime gauge families. One
// ReadMemStats call per scrape covers all of them; the brief
// stop-the-world it implies is a per-scrape cost, not a per-request one.
type runtimeCollector struct{}

func (runtimeCollector) expose(w *bufio.Writer) {
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	writeHeader(w, "go_goroutines", "Number of goroutines that currently exist.", "gauge")
	writeSeries(w, "go_goroutines", nil, nil, "", "", formatUint(uint64(gort.NumGoroutine())))
	writeHeader(w, "go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
	writeSeries(w, "go_memstats_heap_alloc_bytes", nil, nil, "", "", formatUint(ms.HeapAlloc))
	writeHeader(w, "go_memstats_sys_bytes", "Bytes of memory obtained from the OS.", "gauge")
	writeSeries(w, "go_memstats_sys_bytes", nil, nil, "", "", formatUint(ms.Sys))
	writeHeader(w, "go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", "counter")
	writeSeries(w, "go_memstats_alloc_bytes_total", nil, nil, "", "", formatUint(ms.TotalAlloc))
	writeHeader(w, "go_gc_cycles_total", "Number of completed GC cycles.", "counter")
	writeSeries(w, "go_gc_cycles_total", nil, nil, "", "", formatUint(uint64(ms.NumGC)))
	writeHeader(w, "go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	writeSeries(w, "go_gc_pause_seconds_total", nil, nil, "", "", formatFloat(float64(ms.PauseTotalNs)/1e9))
}
