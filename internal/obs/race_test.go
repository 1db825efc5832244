package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentEmitSnapshotStress hammers every tracer lane from many
// goroutines — forcing ring wrap-around — while other goroutines take
// snapshots and scrape the registry. Run under `go test -race` (the
// `make race` tier) it proves the seqlock slot protocol: no data race, no
// torn event (every decoded event must be one that some goroutine actually
// emitted), and snapshots stay within the ring bound.
func TestConcurrentEmitSnapshotStress(t *testing.T) {
	const (
		lanes    = 4
		laneCap  = 64
		writers  = 8
		perWrite = 2000
	)
	tr := NewTracer(lanes, laneCap)
	reg := NewRegistry()
	ctr := reg.Counter("emits_total")
	hist := reg.Histogram("args")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapshots atomic.Int64

	// Snapshot/scrape goroutines run until the writers finish.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := tr.Snapshot()
				snapshots.Add(1)
				if len(evs) > lanes*laneCap {
					t.Errorf("snapshot %d events exceeds ring bound %d", len(evs), lanes*laneCap)
					return
				}
				for _, e := range evs {
					// Torn-read detection: writers only emit EvLocalHit
					// with group == lane*10 and arg in [0, perWrite).
					if e.Kind != EvLocalHit {
						t.Errorf("unexpected kind %v: %+v", e.Kind, e)
						return
					}
					if int32(e.Lane)*10 != e.Group {
						t.Errorf("torn event: %+v", e)
						return
					}
					if e.Arg < 0 || e.Arg >= perWrite {
						t.Errorf("arg out of range: %+v", e)
						return
					}
				}
				_ = reg.Text()
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			lane := w % lanes
			for i := 0; i < perWrite; i++ {
				tr.Emit(lane, EvLocalHit, int32(lane)*10, int64(i))
				ctr.Inc()
				hist.Observe(int64(i))
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	if got := tr.Emitted(); got != writers*perWrite {
		t.Fatalf("emitted %d, want %d", got, writers*perWrite)
	}
	if ctr.Value() != writers*perWrite || hist.Count() != writers*perWrite {
		t.Fatalf("metrics lost updates: counter %d hist %d", ctr.Value(), hist.Count())
	}
	if snapshots.Load() == 0 {
		t.Fatal("no snapshot ran concurrently")
	}
	// A quiescent snapshot reads a full ring of valid events.
	evs := tr.Snapshot()
	if len(evs) != lanes*laneCap {
		t.Fatalf("final snapshot %d events, want full rings %d", len(evs), lanes*laneCap)
	}
}

// TestTracerWrapRace guards the slot protocol without a busy mark: four
// writers lap one 8-slot ring while one goroutine Snapshots and one Polls.
// Every event's arg is a checksum of its stamp, kind and group, so a reader
// that accepted a slot an overwriter had started on would deliver a record
// that does not verify — as would one that read beside a writer lapped
// mid-record, if slots were not written lap after lap; and once the writers
// stop, Poll has delivered or counted as dropped every event emitted.
func TestTracerWrapRace(t *testing.T) {
	const (
		writers  = 4
		perWrite = 5000
		laneCap  = 8
	)
	checksum := func(ts int64, kind EventKind, group int32) int64 {
		return ts*31 ^ int64(kind)<<40 ^ int64(group)
	}
	verify := func(who string, evs []Event) {
		for _, e := range evs {
			if e.Arg != checksum(e.TS, e.Kind, e.Group) {
				t.Errorf("%s delivered a torn event: %+v", who, e)
				return
			}
		}
	}
	tr := NewTracer(1, laneCap)
	stop := make(chan struct{})
	var readers, writing sync.WaitGroup
	var cur Cursor
	var delivered, dropped int64
	poll := func() {
		evs, d := tr.Poll(&cur, nil)
		verify("Poll", evs)
		delivered, dropped = delivered+int64(len(evs)), dropped+d
	}
	spin := func(body func()) {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				body()
				runtime.Gosched() // a reader must not hold the one P of -cpu 1 for a whole time slice
			}
		}
	}
	readers.Add(2)
	go spin(func() { verify("Snapshot", tr.Snapshot()) })
	go spin(poll)
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWrite; i++ {
				ts, kind, group := int64(i*writers+w), EventKind(1+i%int(numEventKinds-1)), int32(w)
				tr.EmitAt(0, ts, kind, group, checksum(ts, kind, group))
			}
		}(w)
	}
	writing.Wait()
	close(stop)
	readers.Wait()
	poll()
	if emitted := tr.Emitted(); emitted != writers*perWrite || delivered+dropped != emitted {
		t.Fatalf("emitted %d, Poll delivered %d + dropped %d", emitted, delivered, dropped)
	}
}
