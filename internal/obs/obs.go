// Package obs is the runtime observability layer: a lock-free speculation
// event tracer and a registry of atomically-updated metrics, cheap enough
// to leave enabled on a serving system.
//
// The paper's evaluation (§5, Fig. 5, Table 1) depends on seeing what the
// speculator did — which groups speculated, which validations matched, how
// many redos preceded each abort — and related work on execution replay
// shows a low-overhead event log is the prerequisite for debugging and
// tuning nondeterministic parallel executions. This package supplies that
// substrate for the whole stack:
//
//   - Tracer: per-lane bounded ring buffers of timestamped Events. Writers
//     never take a lock: a record is a ticket claim and four stores, the
//     slot's sequence word last, and readers validate the sequence word and
//     the ticket counter around their copy (tslot). A full ring overwrites
//     its oldest records, so memory stays bounded no matter how long the
//     runtime runs. Snapshot merges the lanes into one time-ordered log;
//     Poll reads it incrementally.
//
//   - Registry: named Counters, Gauges and log-scale Histograms backed by
//     plain atomics, with a deterministic plain-text exposition format
//     (WriteText) in the style every metrics scraper understands.
//
//   - Observer: the instrument bundle the engine (internal/core) and the
//     scheduler (internal/pool) report into. A fact with an event kind is
//     reported with one call, Note — or NoteAt, when the caller already
//     holds a clock reading of the instant — which advances the kind's
//     counter and emits the event together; the fact table (Catalogue) is
//     the single definition of each kind's event name, metric name, HELP
//     line and the core.Stats field it mirrors. Note, like every Tracer,
//     Counter, Gauge and Histogram method, is a no-op on a nil receiver,
//     so disabled observability costs one branch per decision point. The
//     instruments no event backs are plain fields for readers; the engine
//     writes its own (the validation and round histograms, the three
//     counters) through one nil-safe method each (NoteValidation,
//     NoteSpecCommits, NoteFingerprint, NoteRounds), as it reports an event
//     through Note.
//
// Event schema: every event carries a monotonic timestamp (a reading of the
// process-wide trace clock, Now), the emitting lane, a kind, the group index
// it concerns (or -1), and one kind-specific argument (input index, redo
// attempt, queue depth, squashed input count). A timestamp is the emitting
// lane's last phase reading — the engine reads the clock once per lane phase
// and the account, the histogram and the events of that instant share it —
// so equal stamps are normal, and equal stamps on one ring are in emission
// order. Scheduler events (EvSteal/EvLocalHit/EvTaskFinish) use the lane as
// the worker id; engine events key on Group and use the lane only as a shard
// hint.
package obs

// Fact is one row of the fact table: the one place a thing the runtime
// reports is named. The event kinds' rows drive EventKind.String, counter
// registration, HELP lines and Note; the remaining rows are the
// instruments no event backs. Catalogue lists them all.
type Fact struct {
	// Event is the event kind's stable exposition name; empty for an
	// instrument no event backs.
	Event string
	// Metric is the instrument's name in the Registry and on /metrics.
	Metric string
	// Help is the metric's HELP line.
	Help string
	// ByArg marks a kind whose counter advances by the event's Arg — a
	// quantity (inputs, nanoseconds) — instead of by one per event.
	ByArg bool
	// Stats names the core.Stats field holding the same number for one
	// run (for a histogram, its sum); empty when no field does.
	Stats string
	// bind registers an event-less instrument and stores it in its
	// Observer field.
	bind func(o *Observer, name string)
}

// facts holds the event kinds' rows, indexed by kind.
var facts = [numEventKinds]Fact{
	EvNone:               {Event: "none"},
	EvGroupStart:         {Event: "group-start", Metric: "stats_groups_started_total", Help: "group executions entering the engine's group runner"},
	EvGroupFinish:        {Event: "group-finish", Metric: "stats_groups_finished_total", Help: "group executions returning (squashed groups included)"},
	EvAuxProduced:        {Event: "aux-produced", Metric: "stats_aux_produced_total", Help: "auxiliary-code executions that produced a speculative start state"},
	EvValidateMatch:      {Event: "validate-match", Metric: "stats_validation_match_total", Stats: "Matches", Help: "group boundaries whose speculative state was accepted"},
	EvValidateMismatch:   {Event: "validate-mismatch", Metric: "stats_validation_mismatch_total", Help: "group boundaries whose first validation attempt rejected the speculative state"},
	EvRedo:               {Event: "redo", Metric: "stats_redos_total", Stats: "Redos", Help: "original-producer re-executions attempted"},
	EvAbort:              {Event: "abort", Metric: "stats_aborts_total", Stats: "Aborts", Help: "boundaries that aborted speculation: exhausted redo budget, contained panic, deadline, footprint violation"},
	EvSquash:             {Event: "squash", Metric: "stats_squashed_groups_total", Help: "groups squashed by an abort"},
	EvFallback:           {Event: "fallback", Metric: "stats_fallback_inputs_total", ByArg: true, Stats: "FallbackInputs", Help: "inputs reprocessed sequentially after an abort"},
	EvSteal:              {Event: "steal", Metric: "sched_steals_total", Stats: "Steals", Help: "cross-worker task dispatches (work stealing)"},
	EvLocalHit:           {Event: "local-hit", Metric: "sched_local_hits_total", Stats: "LocalHits", Help: "contention-free local-deque task dispatches"},
	EvTaskFinish:         {Event: "task-finish", Metric: "sched_tasks_done_total", Help: "tasks completed by the scheduler"},
	EvPanic:              {Event: "panic", Metric: "stats_panicked_groups_total", Stats: "PanickedGroups", Help: "speculative groups squashed by a contained user-code panic"},
	EvGroupTimeout:       {Event: "group-timeout", Metric: "stats_group_timeouts_total", Stats: "TimedOutGroups", Help: "speculative groups squashed by the per-group deadline"},
	EvBreakerDenied:      {Event: "breaker-denied", Metric: "stats_breaker_denied_runs_total", Stats: "BreakerDenied", Help: "runs whose speculation was suppressed by an open circuit breaker"},
	EvReserve:            {Event: "reserve", Metric: "stats_reserves_total", Help: "slot reservations written by the deterministic-reservations protocol"},
	EvReserveLost:        {Event: "reserve-lost", Metric: "stats_reserve_conflicts_total", Stats: "ReservationConflicts", Help: "inputs that lost a reserved slot to a lower index at check time"},
	EvCommit:             {Event: "commit", Metric: "stats_reservation_commits_total", Help: "inputs committed by the reservations coordinator"},
	EvFootprintViolation: {Event: "footprint-violation", Metric: "stats_footprint_violations_total", Stats: "FootprintViolations", Help: "state slots touched outside a declared reservation footprint (FootprintCheck oracle)"},
	EvLaneCPUCommitted:   {Event: "lane-cpu-committed", Metric: "stats_lane_cpu_committed_ns_total", ByArg: true, Stats: "LaneCPUCommittedNS", Help: "lane CPU nanoseconds whose results were committed"},
	EvLaneCPUWasted:      {Event: "lane-cpu-wasted", Metric: "stats_lane_cpu_wasted_ns_total", ByArg: true, Stats: "LaneCPUWastedNS", Help: "lane CPU nanoseconds whose results were discarded (aborts, squashes, timeouts, lost reservations)"},
	EvConventional:       {Event: "conventional", Metric: "stats_conventional_inputs_total", ByArg: true, Stats: "ConventionalInputs", Help: "inputs committed by conventional streaks of the reservations protocol (in index order on one clone, no rounds)"},
}

// instruments holds the rows no event backs: named Observer fields, each
// written by one Note* method, and the tracer's own emit/drop totals.
var instruments = []Fact{
	{Metric: "stats_fingerprint_hits_total", Stats: "FingerprintHits", Help: "hash-first acceptance attempts whose fingerprint prefilter fell through to the deep compare",
		bind: func(o *Observer, n string) { o.FingerprintHits = o.Reg.Counter(n) }},
	{Metric: "stats_fingerprint_misses_total", Stats: "FingerprintMisses", Help: "hash-first acceptance attempts rejected by the fingerprint prefilter without a deep compare",
		bind: func(o *Observer, n string) { o.FingerprintMisses = o.Reg.Counter(n) }},
	{Metric: "stats_speculative_commit_inputs_total", Stats: "SpeculativeCommits", Help: "inputs committed from a speculative execution (aux: group > 0; reservations: ahead of a lower pending index)",
		bind: func(o *Observer, n string) { o.SpecCommittedInputs = o.Reg.Counter(n) }},
	{Metric: "stats_validation_latency_ns", Help: "wall-clock nanoseconds each validated group boundary took to resolve (redo re-executions included)",
		bind: func(o *Observer, n string) { o.ValidationLatencyNS = o.Reg.Histogram(n) }},
	{Metric: "stats_redos_per_validation", Stats: "Redos", Help: "re-executions attempted per validated group boundary",
		bind: func(o *Observer, n string) { o.RedosPerValidation = o.Reg.Histogram(n) }},
	{Metric: "stats_rounds_per_group", Stats: "Rounds", Help: "reserve/check/commit rounds needed per reservations group",
		bind: func(o *Observer, n string) { o.RoundsPerGroup = o.Reg.Histogram(n) }},
	{Metric: "sched_queue_depth", Help: "per-deque depth observed after each push",
		bind: func(o *Observer, n string) { o.QueueDepth = o.Reg.Histogram(n) }},
	{Metric: "sched_queue_depth_peak", Stats: "QueueDepthPeak", Help: "lifetime maximum single-deque depth",
		bind: func(o *Observer, n string) { o.QueueDepthPeak = o.Reg.Gauge(n) }},
	{Metric: "trace_events_emitted_total", Help: "events ever emitted into the tracer's rings",
		bind: func(o *Observer, n string) { o.Reg.CounterFunc(n, o.Tracer.Emitted) }},
	{Metric: "trace_events_dropped_total", Help: "events evicted by ring wrap-around (bounded-memory loss)",
		bind: func(o *Observer, n string) { o.Reg.CounterFunc(n, o.Tracer.Dropped) }},
}

// byArg is the fact table's ByArg column as a bit per kind, so noteAt reads
// one word instead of a row. The constant below stops the build once the
// kinds outgrow the word.
const _ = uint32(1 << (numEventKinds - 1))

var byArg = func() (m uint32) {
	for k, f := range facts {
		if f.ByArg {
			m |= 1 << k
		}
	}
	return m
}()

// Fact returns the kind's row of the fact table (the zero Fact for a kind
// outside it).
func (k EventKind) Fact() Fact {
	if int(k) < len(facts) {
		return facts[k]
	}
	return Fact{}
}

// Catalogue returns every row of the fact table: the event kinds in kind
// order, then the instruments no event backs.
func Catalogue() []Fact {
	return append(append([]Fact(nil), facts[1:]...), instruments...)
}

// Counts is one reading of every event kind's counter, indexed by kind.
type Counts [numEventKinds]int64

// Observer bundles the tracer, the registry and the typed instruments the
// runtime writes; Catalogue documents each one.
type Observer struct {
	// Tracer receives the speculation event log. Never nil on an
	// Observer built by NewObserver.
	Tracer *Tracer
	// Reg is the registry all the instruments are registered in;
	// WriteText on it exposes everything at once.
	Reg *Registry

	// kind holds each event kind's counter; Note is their only writer.
	kind [numEventKinds]*Counter

	// FingerprintHits, FingerprintMisses and SpecCommittedInputs are the
	// counters no event backs, written by NoteFingerprint and
	// NoteSpecCommits.
	FingerprintHits     *Counter
	FingerprintMisses   *Counter
	SpecCommittedInputs *Counter

	// ValidationLatencyNS and RedosPerValidation get one observation per
	// boundary whose validation started, so their Count is matches plus
	// aborts minus the aborts a failed lane caused before any validation
	// ran; RedosPerValidation's Sum is the redo counter. NoteValidation
	// writes both.
	ValidationLatencyNS *Histogram
	RedosPerValidation  *Histogram
	// RoundsPerGroup's Sum equals Stats.Rounds and its Count the number
	// of groups the reservations protocol processed; NoteRounds writes it.
	RoundsPerGroup *Histogram
	// QueueDepth observes the scheduler's per-deque depth after every
	// push; QueueDepthPeak tracks the lifetime maximum.
	QueueDepth     *Histogram
	QueueDepthPeak *Gauge
}

// NewObserver builds an Observer with a Tracer of the given lane count and
// per-lane capacity (as NewTracer rounds them) and a fresh Registry with
// every row of the fact table registered under its HELP line — the
// tracer's emit/drop totals among them, as function-backed counters, so
// ring overwrite is visible on every scrape.
func NewObserver(lanes, perLaneCap int) *Observer {
	o := &Observer{Tracer: NewTracer(lanes, perLaneCap), Reg: NewRegistry()}
	for k, f := range facts {
		if f.Metric != "" {
			o.kind[k] = o.Reg.Counter(f.Metric)
			o.Reg.SetHelp(f.Metric, f.Help)
		}
	}
	for _, f := range instruments {
		f.bind(o, f.Metric)
		o.Reg.SetHelp(f.Metric, f.Help)
	}
	return o
}

// Note reports one occurrence of an event-backed fact: it advances the
// kind's counter — by one, or by arg for a ByArg kind — and emits the
// event on lane, so a kind's counter always equals the count (or Arg sum)
// of its events. It reads the trace clock for the stamp; a caller that
// already holds a reading of the instant uses NoteAt. A nil Observer is the
// disabled fast path of both.
func (o *Observer) Note(lane int, kind EventKind, group int32, arg int64) {
	if o != nil {
		o.note(lane, kind, group, arg)
	}
}

// NoteAt is Note stamped with the caller's reading ts of the trace clock
// (Now), so the facts of one instant share one clock read and a span's ends
// are the very readings its account was filed from.
func (o *Observer) NoteAt(lane int, ts int64, kind EventKind, group int32, arg int64) {
	if o != nil {
		o.noteAt(lane, ts, kind, group, arg)
	}
}

// note and noteAt are the enabled paths, kept out of line so the nil checks
// inline into every decision point.
func (o *Observer) note(lane int, kind EventKind, group int32, arg int64) {
	o.noteAt(lane, Now(), kind, group, arg)
}

func (o *Observer) noteAt(lane int, ts int64, kind EventKind, group int32, arg int64) {
	d := int64(1)
	if byArg>>kind&1 != 0 {
		d = arg
	}
	o.kind[kind].Add(d)
	o.Tracer.EmitAt(lane, ts, kind, group, arg)
}

// NoteValidation reports one validated group boundary: the nanoseconds it
// took to resolve and the re-executions it attempted. It is the one write of
// ValidationLatencyNS and RedosPerValidation; a nil Observer ignores it.
func (o *Observer) NoteValidation(latencyNS int64, redos int) {
	if o != nil {
		o.ValidationLatencyNS.Observe(latencyNS)
		o.RedosPerValidation.Observe(int64(redos))
	}
}

// NoteSpecCommits reports inputs committed from a speculative execution: the
// one write of SpecCommittedInputs. A nil Observer ignores it.
func (o *Observer) NoteSpecCommits(inputs int) {
	if o != nil {
		o.SpecCommittedInputs.Add(int64(inputs))
	}
}

// NoteFingerprint reports one hash-first acceptance attempt, a hit (it fell
// through to the deep compare) or a miss (rejected without one): the one
// write of FingerprintHits and FingerprintMisses. A nil Observer ignores it.
func (o *Observer) NoteFingerprint(hit bool) {
	if o == nil {
		return
	}
	if hit {
		o.FingerprintHits.Inc()
	} else {
		o.FingerprintMisses.Inc()
	}
}

// NoteRounds reports the reserve/check/commit rounds one reservations group
// needed: the one write of RoundsPerGroup. A nil Observer ignores it.
func (o *Observer) NoteRounds(rounds int) {
	if o != nil {
		o.RoundsPerGroup.Observe(int64(rounds))
	}
}

// Counts reads every event kind's counter.
func (o *Observer) Counts() (c Counts) {
	for k := range c {
		c[k] = o.kind[k].Value()
	}
	return c
}
