// Package inputgen exports the benchmarks' native inputs for inspection:
// the synthetic camera streams, point streams, instrument portfolios, fluid
// impulses, videos and netlists that substitute for the paper's PARSEC
// native inputs. Inputs are fixed per (workload, size, variant), so an
// export is a reproducible artifact a user can diff, plot, or archive.
package inputgen

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/workload/bodytrack"
	"repro/internal/workload/canneal"
	"repro/internal/workload/facedet"
	"repro/internal/workload/fluidanimate"
	"repro/internal/workload/streamclassifier"
	"repro/internal/workload/streamcluster"
	"repro/internal/workload/swaptions"
)

// Dump is one workload's exported input set.
type Dump struct {
	Workload    string `json:"workload"`
	Size        int    `json:"size"`
	BadTraining bool   `json:"badTraining"`
	// Records is the number of input records exported.
	Records int `json:"records"`
	// Data is the workload-specific record list.
	Data any `json:"data"`
}

// Export materializes the named workload's inputs.
func Export(name string, size int, badTraining bool) (*Dump, error) {
	d := &Dump{Workload: name, Size: size, BadTraining: badTraining}
	switch name {
	case "bodytrack":
		frames := bodytrack.GenFrames(size, badTraining)
		d.Data, d.Records = frames, len(frames)
	case "facedet":
		frames := facedet.GenFrames(size, badTraining)
		d.Data, d.Records = frames, len(frames)
	case "fluidanimate":
		steps := fluidanimate.GenSteps(size, badTraining)
		d.Data, d.Records = steps, len(steps)
	case "streamcluster":
		pts := streamcluster.Points(size, badTraining)
		d.Data, d.Records = pts, len(pts)
	case "streamclassifier":
		pts := streamclassifier.Points(size, badTraining)
		d.Data, d.Records = pts, len(pts)
	case "swaptions":
		instruments := swaptions.Portfolio(size, badTraining)
		d.Data, d.Records = instruments, len(instruments)
	case "canneal":
		if badTraining {
			return nil, fmt.Errorf("inputgen: canneal has no bad-training variant")
		}
		wires := canneal.Netlist(size)
		d.Data, d.Records = wires, len(wires)
	default:
		return nil, fmt.Errorf("inputgen: unknown workload %q", name)
	}
	return d, nil
}

// WriteJSON serializes the dump as indented JSON.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Summary returns a one-line description.
func (d *Dump) Summary() string {
	variant := "native"
	if d.BadTraining {
		variant = "non-representative (§4.6)"
	}
	return fmt.Sprintf("%s: %d records at size %d (%s inputs)", d.Workload, d.Records, d.Size, variant)
}
