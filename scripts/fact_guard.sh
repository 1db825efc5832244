#!/bin/sh
# fact-guard: the engine and the pool report each fact through
# obs.Observer.Note, so a kind's counter and its events cannot drift. Fail
# if non-test code under internal/core or internal/pool emits a trace event
# itself, or writes an Observer counter anywhere but frame.go's note*
# methods (the home of the counters no event backs). The reader-side twin:
# internal/telemetry's SpanFolder.fold and LaneTasks are the only code that
# turns the event log back into group lifecycles and task spans, so fail if
# any other non-test file (bench/ is not ours to edit) switches on a group
# start/finish or task-finish kind. The copy guard: a slice-of-slots state
# declares its reservation contract through core.SlotOps, so fail if a
# non-test file under internal/workload or internal/harness spells out a
# ReserveOps literal (a NumSlots: key) again. The clock guard: internal/core
# reads one clock, runFrame.now (the trace clock, obs.Now), so a lane's
# reading can feed the account, the histogram and the events of its instant;
# fail on a time.Now( or time.Since( anywhere in its non-test code (the
# engine holds no policy with a clock of its own: admission is asked through
# core.Admission). The streak guard: inputs that bypassed the
# reservation rounds are one fact, so Stats.ConventionalInputs and the
# conventional event are written by runFrame.noteConventional alone (Stats.Add
# sums the field), and one site calls it: a streak's commit. The fan-out guard:
# internal/core hands work to the pool at one site, runFrame.fanOut, which is
# where the ErrClosed inline fallback lives and what callers bracket for the
# controller; fail on a SubmitBatch( or .Submit( anywhere else in its non-test
# code. The copy-site guard: the engine alone copies states, at the hand-offs
# where a second reader exists (DESIGN.md, "Who copies a state, and when"), so
# fail on an ops.Clone( in internal/core's non-test code outside the functions
# that table names — the next copy has to be argued for there. The schedule
# guard: the pool is no part of a controlled schedule — which worker ran a
# task decides nothing the engine can observe, which is what makes a recorded
# trace replay exactly at any width — so fail if internal/pool's non-test code
# imports internal/sched, or internal/sched declares a point (or wire name) a
# pool worker would yield on. The layering guard: the observation layer
# depends on internal/obs, not on the engine it observes, so fail if
# internal/telemetry's non-test code imports internal/core. The name guard:
# every counter's name is defined once, in internal/obs's fact table, and
# reconciliation walks that table (telemetry.Reconcile), so fail on a
# "stats_..._total" or "sched_..._total" string literal in non-test Go outside
# internal/obs (bench/ excluded). The window guard: a telemetry Server serves
# the Signals aggregator it is handed, so /signals, /healthz and the caller's
# own reports read one window; fail if internal/telemetry's non-test code
# builds an aggregator: a NewSignals( call anywhere but signals.go. Run via
# `make vet`.
set -eu

emits=$(grep -rn 'Tracer\.Emit(' internal/core internal/pool --include='*.go' |
    grep -v '_test\.go:' || true)
writes=$(grep -rnE '\bo\.[A-Z][A-Za-z]*\.(Inc|Add)\(' internal/core internal/pool --include='*.go' |
    grep -v -e '_test\.go:' -e '^internal/core/frame\.go:' || true)
outside=$(awk '/^func /{fn=$0} /\.o\.[A-Z][A-Za-z]*\.(Inc|Add)\(/ && fn !~ /\) note[A-Z]/{print FILENAME": "$0}' \
    internal/core/frame.go)

if [ -n "$emits$writes$outside" ]; then
    echo "fact-guard: report through obs.Observer.Note (or a runFrame.note* method):" >&2
    printf '%s\n' "$emits" "$writes" "$outside" | grep . >&2
    exit 1
fi

folds=$(grep -rnE 'case .*obs\.Ev(GroupStart|GroupFinish|TaskFinish)' --include='*.go' \
    --exclude-dir=bench --exclude-dir=telemetry . | grep -v '_test\.go:' || true)
if [ -n "$folds" ]; then
    echo "fact-guard: fold the event log through telemetry.BuildSpans/SpanFolder and LaneTasks:" >&2
    printf '%s\n' "$folds" >&2
    exit 1
fi

copies=$(grep -rn 'NumSlots:' internal/workload internal/harness --include='*.go' |
    grep -v '_test\.go:' || true)
if [ -n "$copies" ]; then
    echo "fact-guard: declare a slice-of-slots state through core.SlotOps, not a hand-written ReserveOps:" >&2
    printf '%s\n' "$copies" >&2
    exit 1
fi

clocks=$(grep -rnE 'time\.(Now|Since)\(' internal/core --include='*.go' | grep -v '_test\.go:' || true)
if [ -n "$clocks" ]; then
    echo "fact-guard: internal/core reads the clock through runFrame.now only:" >&2
    printf '%s\n' "$clocks" >&2
    exit 1
fi

conventional=$(grep -rnE 'obs\.EvConventional|\.ConventionalInputs (\+)?=' internal/core --include='*.go' |
    grep -v -e '_test\.go:' -e '^internal/core/frame\.go:' -e 's\.ConventionalInputs += o\.ConventionalInputs' || true)
calls=$(grep -rn '\.noteConventional(' internal/core --include='*.go' | grep -v '_test\.go:' || true)
if [ -n "$conventional" ] || [ "$(printf '%s\n' "$calls" | grep -c .)" -ne 1 ]; then
    echo "fact-guard: conventional inputs are recorded by runFrame.noteConventional, called from one site:" >&2
    printf '%s\n' "$conventional" "$calls" | grep . >&2
    exit 1
fi

submits=$(awk 'FNR==1{fn=""} /^func /{fn=$0} /SubmitBatch\(|\.Submit\(/ && $0 !~ /^[[:space:]]*\/\// && fn !~ /^func \(f \*runFrame\) fanOut\(/{print FILENAME":"FNR": "$0}' \
    $(ls internal/core/*.go | grep -v '_test\.go$'))
if [ -n "$submits" ]; then
    echo "fact-guard: internal/core submits to the pool through runFrame.fanOut only:" >&2
    printf '%s\n' "$submits" >&2
    exit 1
fi

clones=$(awk 'FNR==1{fn=""} /^func /{fn=$0} /ops\.Clone\(/ && $0 !~ /^[[:space:]]*\/\// &&
    fn !~ /^func \((d \*Dependence|scr \*runScratch|r \*resvRun)\[[^]]*\]\) (runAll|launch|produceAux|executeGroup|redoGroup|commit|runReservations|snapshot|computeOne|runStreak|seqOne)\(/{print FILENAME":"FNR": "$0}' \
    $(ls internal/core/*.go | grep -v '_test\.go$'))
if [ -n "$clones" ]; then
    echo "fact-guard: internal/core copies a state only at the hand-offs DESIGN.md's copy table names:" >&2
    printf '%s\n' "$clones" >&2
    exit 1
fi

poolsched=$(grep -rn '"repro/internal/sched"' internal/pool --include='*.go' | grep -v '_test\.go:' || true)
poolpoints=$(grep -nEi 'Point[A-Za-z]*(steal|victim|pop|worker|dispatch)|"[a-z-]*(steal|victim|pop|worker|dispatch)[a-z-]*",' \
    $(ls internal/sched/*.go | grep -v '_test\.go$') | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
if [ -n "$poolsched$poolpoints" ]; then
    echo "fact-guard: the pool takes no part in the schedule (no sched import in internal/pool, no pool point in internal/sched):" >&2
    printf '%s\n' "$poolsched" "$poolpoints" | grep . >&2
    exit 1
fi

layering=$(grep -rn '"repro/internal/core"' internal/telemetry --include='*.go' | grep -v '_test\.go:' || true)
if [ -n "$layering" ]; then
    echo "fact-guard: internal/telemetry observes the engine through internal/obs, it does not import internal/core:" >&2
    printf '%s\n' "$layering" >&2
    exit 1
fi

names=$(grep -rnE '"(stats|sched)_[a-z0-9_]*_total"' --include='*.go' --exclude-dir=bench . |
    grep -v -e '_test\.go:' -e '^\./internal/obs/' || true)
if [ -n "$names" ]; then
    echo "fact-guard: metric names come from the fact table (obs.Catalogue, EventKind.Fact), not string literals:" >&2
    printf '%s\n' "$names" >&2
    exit 1
fi

windows=$(grep -rn 'NewSignals(' internal/telemetry --include='*.go' |
    grep -v -e '_test\.go:' -e '^internal/telemetry/signals\.go:' | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
if [ -n "$windows" ]; then
    echo "fact-guard: a telemetry Server serves the Signals it is handed; build no aggregator in internal/telemetry:" >&2
    printf '%s\n' "$windows" >&2
    exit 1
fi
