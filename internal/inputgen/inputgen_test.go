package inputgen

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/workload/canneal"
	"repro/internal/workload/registry"
)

func TestExportAllWorkloads(t *testing.T) {
	for _, name := range registry.Names() {
		d, err := Export(name, 8, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Records == 0 {
			t.Fatalf("%s: no records", name)
		}
		if d.Workload != name || d.Size != 8 {
			t.Fatalf("%s: metadata %+v", name, d)
		}
	}
}

func TestExportUnknownWorkload(t *testing.T) {
	if _, err := Export("nope", 4, false); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestExportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	d1, _ := Export("bodytrack", 6, false)
	d2, _ := Export("bodytrack", 6, false)
	if err := d1.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := d2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exports differ across calls")
	}
}

func TestBadTrainingVariantDiffers(t *testing.T) {
	var a, b bytes.Buffer
	d1, _ := Export("facedet", 10, false)
	d2, _ := Export("facedet", 10, true)
	d1.WriteJSON(&a)
	d2.WriteJSON(&b)
	if a.String() == b.String() {
		t.Fatal("bad-training inputs identical to native")
	}
}

func TestCannealHasNoBadVariant(t *testing.T) {
	if _, err := Export("canneal", 4, true); err == nil {
		t.Fatal("canneal bad-training accepted")
	}
}

func TestJSONDecodes(t *testing.T) {
	d, _ := Export("swaptions", 5, false)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Workload string `json:"workload"`
		Records  int    `json:"records"`
		Data     []struct {
			Strike float64 `json:"Strike"`
		} `json:"data"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Workload != "swaptions" || decoded.Records != 5 || len(decoded.Data) != 5 {
		t.Fatalf("decoded: %+v", decoded)
	}
	if decoded.Data[0].Strike <= 0 {
		t.Fatal("instrument fields not serialized")
	}
}

func TestSummary(t *testing.T) {
	d, _ := Export("streamcluster", 12, false)
	s := d.Summary()
	if !strings.Contains(s, "streamcluster") || !strings.Contains(s, "native") {
		t.Fatalf("summary: %q", s)
	}
	d2, _ := Export("bodytrack", 4, true)
	if !strings.Contains(d2.Summary(), "non-representative") {
		t.Fatalf("bad summary: %q", d2.Summary())
	}
}

// TestRecordsMatchRunInputVolume pins Export to what a run at the same size
// reads. For the five chain workloads that is the engine's input count
// times the records one input carries (a stream batch holds 16 points);
// swaptions exports size instruments of the portfolio whose first six a
// run prices in size blocks, and canneal the netlist of 4·size elements
// RunOriginal anneals — neither is an engine input chain.
func TestRecordsMatchRunInputVolume(t *testing.T) {
	const size = 8
	perInput := map[string]int{
		"bodytrack": 1, "facedet": 1, "fluidanimate": 1,
		"streamcluster": 16, "streamclassifier": 16,
	}
	fixed := map[string]int{"swaptions": size, "canneal": len(canneal.Netlist(size))}
	for _, w := range registry.All() {
		name := w.Desc().Name
		d, err := Export(name, size, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, ok := fixed[name]
		if per, chain := perInput[name]; chain {
			_, st := w.RunSTATS(1, size, workload.SpecOptions{})
			want, ok = st.Inputs*per, true
		}
		if !ok {
			t.Fatalf("%s: no expected input volume; add the workload to this table", name)
		}
		if d.Records != want {
			t.Fatalf("%s: exported %d records, a run at size %d reads %d", name, d.Records, size, want)
		}
	}
}
