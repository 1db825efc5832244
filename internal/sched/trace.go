package sched

// The trace format: a recorded schedule is a header plus one line per
// admission, compact enough to check into testdata/schedules/ and diff by
// eye. Any failing exploration run serializes to this format and replays
// byte-for-byte with NewReplay, so a discovered interleaving bug becomes a
// permanent deterministic regression test.
//
//	# stats schedule trace v1
//	seed 51966
//	controller random
//	note squash races group 3 mid-step
//	y aux 0
//	c timeout-check 3 2 1
//
// `y <point> <lane>` is a yield admission; `c <point> <lane> <n> <choice>`
// is a decision admission with its domain size and recorded outcome.

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"strings"
)

// Kind distinguishes trace entries.
type Kind uint8

// The two entry kinds: serialization-only yields and n-way decisions.
const (
	KindYield Kind = iota
	KindChoose
)

// Entry is one recorded admission.
type Entry struct {
	Kind  Kind
	Point Point
	Lane  int
	// N and Choice are the decision domain size and outcome (KindChoose
	// only; zero for yields).
	N      int
	Choice int
}

// String renders the entry in the trace format's line syntax.
func (e Entry) String() string {
	if e.Kind == KindChoose {
		return fmt.Sprintf("c %s %d %d %d", e.Point, e.Lane, e.N, e.Choice)
	}
	return fmt.Sprintf("y %s %d", e.Point, e.Lane)
}

// Trace is a recorded schedule: every admission the controller made, in
// order, plus the provenance needed to regenerate or label it.
type Trace struct {
	// Seed is the recording controller's seed.
	Seed uint64
	// Controller names the controller that produced the recording
	// ("random", "pct", "replay").
	Controller string
	// Note is a free-form label (the failing workload and mix, say).
	Note string
	// Entries are the admissions in schedule order.
	Entries []Entry
}

// Hash returns a stable 64-bit fingerprint of the decision sequence, used
// by the exploration harness to count distinct interleavings.
func (t *Trace) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range t.Entries {
		buf[0] = byte(e.Kind)
		buf[1] = byte(e.Point)
		buf[2] = byte(e.Lane)
		buf[3] = byte(e.Lane >> 8)
		buf[4] = byte(e.N)
		buf[5] = byte(e.Choice)
		buf[6] = byte(e.Choice >> 8)
		buf[7] = byte(int8(e.Lane >> 16))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Equal reports whether two traces record the same decision sequence
// (provenance fields are ignored).
func (t *Trace) Equal(o *Trace) bool {
	if len(t.Entries) != len(o.Entries) {
		return false
	}
	for i := range t.Entries {
		if t.Entries[i] != o.Entries[i] {
			return false
		}
	}
	return true
}

// Encode writes the trace in the textual schedule format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# stats schedule trace v1")
	fmt.Fprintf(bw, "seed %d\n", t.Seed)
	if t.Controller != "" {
		fmt.Fprintf(bw, "controller %s\n", t.Controller)
	}
	if t.Note != "" {
		fmt.Fprintf(bw, "note %s\n", t.Note)
	}
	for _, e := range t.Entries {
		fmt.Fprintln(bw, e.String())
	}
	return bw.Flush()
}

// Decode parses a trace in the textual schedule format.
func Decode(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		f := strings.Fields(s)
		switch f[0] {
		case "seed":
			if len(f) != 2 {
				return nil, fmt.Errorf("sched: line %d: malformed seed", line)
			}
			v, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sched: line %d: %v", line, err)
			}
			t.Seed = v
		case "controller":
			if len(f) == 2 {
				t.Controller = f[1]
			}
		case "note":
			t.Note = strings.TrimSpace(strings.TrimPrefix(s, "note"))
		case "y":
			if len(f) != 3 {
				return nil, fmt.Errorf("sched: line %d: malformed yield", line)
			}
			p, ok := ParsePoint(f[1])
			if !ok {
				return nil, fmt.Errorf("sched: line %d: unknown point %q", line, f[1])
			}
			lane, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fmt.Errorf("sched: line %d: %v", line, err)
			}
			t.Entries = append(t.Entries, Entry{Kind: KindYield, Point: p, Lane: lane})
		case "c":
			if len(f) != 5 {
				return nil, fmt.Errorf("sched: line %d: malformed choice", line)
			}
			p, ok := ParsePoint(f[1])
			if !ok {
				return nil, fmt.Errorf("sched: line %d: unknown point %q", line, f[1])
			}
			lane, err1 := strconv.Atoi(f[2])
			n, err2 := strconv.Atoi(f[3])
			choice, err3 := strconv.Atoi(f[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("sched: line %d: malformed choice operands", line)
			}
			t.Entries = append(t.Entries, Entry{Kind: KindChoose, Point: p, Lane: lane, N: n, Choice: choice})
		default:
			return nil, fmt.Errorf("sched: line %d: unknown directive %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile serializes the trace to path (0644).
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
