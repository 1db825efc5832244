package telemetry

import (
	"sort"

	"repro/internal/obs"
)

// LaneTask is one scheduler dispatch on a worker lane, from its dispatch
// event to the lane's next task-finish. An aux run dispatches one task per
// lane beyond its caller's, each looping over the groups it claims: a pool
// lane shows one task span per run, however many groups it ran, and lane 0
// — the calling goroutine — has none. A reservations run dispatches one per
// chunk of each wave it fans out.
type LaneTask struct {
	// Lane is the worker the task ran on.
	Lane int16
	// StartNS is the dispatch; EndNS the finish (StartNS while Open).
	StartNS, EndNS int64
	// Open marks a dispatch whose finish is not in the log: the task was
	// still running, or the record was evicted by the bounded ring.
	Open bool
}

// schedKind reports whether k is one of the scheduler's dispatch kinds,
// which LaneTasks pairs and the span fold only counts.
func schedKind(k obs.EventKind) bool {
	return k == obs.EvLocalHit || k == obs.EvTaskFinish
}

// LaneTasks pairs a snapshot's scheduler events into tasks, ordered by
// lane and then dispatch time. The input may be unordered. A finish whose
// dispatch was evicted yields nothing. It is a function of the snapshot,
// never of folder state, so a SpanFolder poll does not pay for it.
func LaneTasks(events []obs.Event) []LaneTask {
	var sched []obs.Event
	for _, e := range events {
		if schedKind(e.Kind) {
			sched = append(sched, e)
		}
	}
	sort.SliceStable(sched, func(i, j int) bool {
		if sched[i].Lane != sched[j].Lane {
			return sched[i].Lane < sched[j].Lane
		}
		return sched[i].TS < sched[j].TS
	})
	var tasks []LaneTask
	for _, e := range sched {
		switch e.Kind {
		case obs.EvLocalHit:
			tasks = append(tasks, LaneTask{Lane: e.Lane, StartNS: e.TS, EndNS: e.TS, Open: true})
		case obs.EvTaskFinish:
			if n := len(tasks) - 1; n >= 0 && tasks[n].Lane == e.Lane && tasks[n].Open {
				tasks[n].EndNS, tasks[n].Open = e.TS, false
			}
		}
	}
	return tasks
}
