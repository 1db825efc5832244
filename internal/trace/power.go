package trace

import (
	"fmt"
	"io"

	"repro/internal/energy"
	"repro/internal/platform"
)

// PowerOptions controls the power-timeline rendering.
type PowerOptions struct {
	// Width is the timeline width in columns (default 80).
	Width int
	// Height is the bar height in rows (default 8).
	Height int
}

// PowerSeries buckets the modeled instantaneous power over the run into
// Width columns (time-weighted averages), the series behind the paper's
// watt-meter trace. Columns no interval overlaps are filled in two ways:
// outside the covered span (before the first interval or after the last)
// the machine is idle and the column reads the model's base power; inside
// it, an empty column only means the schedule's interval list is sparser
// than the column grid, so its power is linearly interpolated between the
// nearest covered neighbours instead of dipping to base power — a real
// watt-meter would never show those gaps.
func PowerSeries(res platform.Result, model energy.Model, width int) []float64 {
	if width <= 0 {
		width = 80
	}
	series := make([]float64, width)
	weight := make([]float64, width)
	if res.Makespan <= 0 {
		return series
	}
	colDur := res.Makespan / float64(width)
	for _, iv := range res.Intervals {
		p := model.Power(iv)
		for c := 0; c < width; c++ {
			lo := float64(c) * colDur
			hi := lo + colDur
			overlap := min(hi, iv.End) - max(lo, iv.Start)
			if overlap > 0 {
				series[c] += p * overlap
				weight[c] += overlap
			}
		}
	}
	first, last := -1, -1
	for c := range series {
		if weight[c] > 0 {
			series[c] /= weight[c]
			if first < 0 {
				first = c
			}
			last = c
		}
	}
	if first < 0 {
		// Nothing ran at all: the whole timeline idles at base power.
		for c := range series {
			series[c] = model.BasePower
		}
		return series
	}
	for c := range series {
		if weight[c] > 0 {
			continue
		}
		if c < first || c > last {
			series[c] = model.BasePower // idle before the run starts / after it ends
			continue
		}
		// Interior gap: interpolate between the nearest covered columns.
		l := c - 1
		for weight[l] == 0 {
			l--
		}
		r := c + 1
		for weight[r] == 0 {
			r++
		}
		frac := float64(c-l) / float64(r-l)
		series[c] = series[l] + (series[r]-series[l])*frac
	}
	return series
}

// RenderPower draws the power timeline as an ASCII bar chart: one column
// per time bucket, bar height proportional to modeled system power.
func RenderPower(w io.Writer, res platform.Result, model energy.Model, o PowerOptions) {
	if o.Width <= 0 {
		o.Width = 80
	}
	if o.Height <= 0 {
		o.Height = 8
	}
	series := PowerSeries(res, model, o.Width)
	maxP := 0.0
	for _, p := range series {
		if p > maxP {
			maxP = p
		}
	}
	if maxP == 0 {
		fmt.Fprintln(w, "(no power data)")
		return
	}
	fmt.Fprintf(w, "power over time: peak %.0f W, energy %.0f J, makespan %.2f\n",
		maxP, model.Energy(res), res.Makespan)
	for row := o.Height; row >= 1; row-- {
		threshold := maxP * float64(row) / float64(o.Height)
		line := make([]byte, o.Width)
		for c, p := range series {
			if p >= threshold-1e-9 {
				line[c] = '#'
			} else {
				line[c] = ' '
			}
		}
		fmt.Fprintf(w, "%5.0fW |%s\n", threshold, line)
	}
	fmt.Fprintf(w, "       +%s\n", repeatByte('-', o.Width))
}

func repeatByte(b byte, n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return string(out)
}
