#!/bin/sh
# fact-guard: the engine and the pool report each fact through
# obs.Observer.Note, so a kind's counter and its events cannot drift. Fail
# if non-test code under internal/core or internal/pool emits a trace event
# itself or adds to an Observer counter, or internal/core observes one of its
# histograms: the instruments no event backs are written by the Observer's
# own Note* methods, which frame.go's note* methods call. The reader-side twin:
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
# controller; fail on a Dispatch(, SubmitBatch( or .Submit( anywhere else in
# its non-test code. The copy-site guard: the engine alone copies states, at the hand-offs
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
# builds an aggregator: a NewSignals( call anywhere but signals.go. The
# recover guard: a panic in user code becomes a *PanicError in one place,
# internal/core's contain (RunChecked, RunStreamChecked and the stats facade
# over them), and a panicking pool task is counted in one place,
# internal/pool's run; fail on a recover() in any other non-test Go (bench/
# excluded). The finding guard: a static-analysis finding has one record,
# internal/analysis's Diagnostic, which statsvet, statsc -vet and the Go
# analyzers all report and render one way; fail if any other non-test Go
# declares a Diagnostic or finding struct, or spells a severity as a string
# (Severity: "...") instead of analysis.Error/Warning.
# The recycling guard: internal/core recycles a run's scratch per
# instantiation, and the kernels their per-call buffers, in an
# internal/recycle.List, whose slots garbage collection does not empty (only
# what overflows them goes to the List's own sync.Pool), and the span folder
# recycles the accumulators its completed ring evicts; a sync.Pool used
# directly is emptied by every second collection, which turns a warm path
# cold at random, so fail on a sync.Pool in the non-test code of
# internal/core, internal/workload or internal/telemetry. The knob-copy guard:
# the engine's knobs are declared by core.Options, stats.Options and
# workload.SpecOptions, and a state-space point reaches them through
# profiler.DecodeDependence, so fail if any other non-test struct (bench/ and
# testdata excluded) declares both a GroupSize and a RedoMax field. The
# experiment-list guard: every table and figure of the evaluation is an entry
# of internal/harness's Experiments, which statsexp loops over, so fail on a
# call to a harness.*Table( function outside internal/harness (tests
# included), and on a Benchmark* in the repository root whose body calls into
# internal/harness: a second way to regenerate a figure is a second list.
# The one-record guard: the front-end parses each declaration into the IR's
# own metadata rows (frontend.TradeoffDecl and DepDecl embed ir.TradeoffMeta
# and ir.DepMeta, reserve/touches entries are ir.IndexExpr), and a tradeoff
# kind is tradeoff.Kind, whose spelling tradeoff.ParseKind alone reads; so
# fail if a non-test struct outside internal/ir declares both a Stride and an
# Offset field (a second slot-index record), and on a non-test comparison
# against a kind's spelling (case "constant", == "type", != "function", ...)
# outside internal/tradeoff (bench/ and testdata excluded). The kernel-scratch
# guard: facedet's step, bodytrack's updateModel and fluidanimate's
# simulateStep draw their per-call buffers from their package's recycle.List and update
# the state they are handed in place, so fail on a make( or cloneState( call
# inside their bodies (a resize helper they call may still allocate the new
# set). The declaration guard: each workload has one declaration, the
# <name>.stats its package embeds (workload.Descriptor.Declaration), which
# the compilers, statsvet and statsc's goldens read in place and the
# package's tests hold equal to the program; fail on a tracked .stats file
# anywhere but internal/workload/<name>/ and the broken corpus
# (cmd/statsvet/testdata/corpus/broken/): a copy is a second declaration.
# The facade guard: package stats is what a STATS user writes against (the
# SDI/TI builders, Runtime, Tune and the telemetry views), and its runnable
# walkthroughs are its Example functions, which go test checks; fail on a
# tracked file under examples/, and if stats' non-test code imports the
# simulator, the energy model, the back-end or the analysis passes
# (internal/platform, internal/energy, internal/backend, internal/analysis).
# The observer guard: internal/core reports every fact, event-backed or not,
# through a nil-safe obs.Observer method (Note, NoteAt, NoteValidation,
# NoteSpecCommits, NoteRounds), so a disabled observer costs
# the engine one inlined branch inside obs and no branch of its own; fail on
# an observer nil check (o, .o or .Obs against nil) in its non-test code,
# except runFrame.stamp and a guard whose block is one clock read: those skip
# a reading that only events would carry. The fan-out-price guard: whether a
# reservations group runs its rounds is ruled once, before its first round,
# from its widest possible wave and the run's least time per compute against
# one constant, fanOutPrice, so a seed runs one shape; fail on a clock read
# inside the resvRun methods computeWave and roundsPay (the chunks time
# themselves, in runChunk). The one-ruling guard: inside a group that runs
# rounds every wave of more than one chunk goes to the pool; fail on a
# per-wave or per-group fan-out record (byChoice, groupGrain, fanOutPays) in
# non-test internal/core, and on a ruling inside computeWave. The acceptance
# guard: a boundary's acceptance is one MatchAny call over the originals
# (core.StateOps holds Clone and MatchAny), and a digest a dependence wants
# compared first belongs inside its MatchAny; fail on the retired hash-first
# prefilter's pieces: hashFirst, origFPs, a Fingerprint field of StateOps or a
# Fingerprint( call in non-test internal/core, FingerprintFunc or
# SetFingerprint in stats, NoteFingerprint or a stats_fingerprint_ metric in
# internal/obs, Hash64 in internal/mathx, and an analyzer named fingerprint in
# apivet. Stats.FingerprintHits and FingerprintMisses stay, deprecated and
# always 0, until the benchmark module stops reading them. The one-queue
# guard: the pool's workers take tasks from one FIFO queue, and a run counts
# the tasks it handed the pool where it hands them over (runFrame.fanOut), so
# runs sharing a pool count only their own; fail on the retired work-stealing
# deques' pieces in non-test internal/pool (popBack, sweep(, xorshift,
# idlers, a shard type), on EvSteal, Stolen or StealFrac[tion] in non-test Go
# outside bench/, and on a .Metrics() read in non-test internal/core: a
# pool-wide counter is no run's. Stats.Steals stays, deprecated and always 0,
# until the benchmark module stops reading it. The process-pool guard: a run
# given no pool leases the process pool (pool.Process), whose workers outlive
# the run, and its dispatch events and queue depths reach the run's observer
# because its tasks carry it (Pool.Dispatch); fail on a pool.New(, a
# SetObserver(, a private identifier or a .Close() in non-test
# internal/core code (comments aside): no run builds, observes or closes a
# pool of its own.
# Run via `make vet`.
set -eu

emits=$(grep -rn 'Tracer\.Emit(' internal/core internal/pool --include='*.go' |
    grep -v '_test\.go:' || true)
writes=$(grep -rnE '\bo\.[A-Z][A-Za-z]*\.(Inc|Add)\(' internal/core internal/pool --include='*.go' |
    grep -v '_test\.go:' || true)
observes=$(grep -rnE '\bo\.[A-Z][A-Za-z]*\.Observe\(' internal/core --include='*.go' | grep -v '_test\.go:' || true)

if [ -n "$emits$writes$observes" ]; then
    echo "fact-guard: report through obs.Observer.Note and its Note* methods (or a runFrame.note* method):" >&2
    printf '%s\n' "$emits" "$writes" "$observes" | grep . >&2
    exit 1
fi

observers=$(awk 'FNR==1{fn=""; state=0}
    /^func /{fn=$0}
    state == 1 {state = /^[[:space:]]*[A-Za-z_.]+ = [a-z]+\.now\(\)$/ ? 2 : 3}
    state == 2 && !/= [a-z]+\.now\(\)$/ {state = /^[[:space:]]*}$/ ? 0 : 3}
    state == 3 {print held; state=0}
    /(^|[^A-Za-z0-9_])(o|Obs) [!=]= nil/ && $0 !~ /^[[:space:]]*\/\// &&
        fn !~ /^func \(f \*runFrame\) stamp\(/ {held=FILENAME":"FNR": "$0; state=1}' \
    $(ls internal/core/*.go | grep -v '_test\.go$'))
if [ -n "$observers" ]; then
    echo "fact-guard: internal/core reports through nil-safe obs.Observer methods; guard nothing on the observer but a clock read:" >&2
    printf '%s\n' "$observers" >&2
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

waveclocks=$(awk 'FNR==1{fn=""} /^func /{fn=$0} /^}/{fn=""}
    fn ~ /^func \(r \*resvRun\[[^]]*\]\) (computeWave|roundsPay)\(/ &&
        /(\.now|\.stamp|\.expired|obs\.Now|time\.Now)\(/ && $0 !~ /^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}' \
    internal/core/reservations.go)
if [ -n "$waveclocks" ]; then
    echo "fact-guard: a reservations group runs rounds by its widest wave and the run's grain against fanOutPrice; computeWave and roundsPay read no clock:" >&2
    printf '%s\n' "$waveclocks" >&2
    exit 1
fi

rulings=$( { grep -nwE 'byChoice|groupGrain|fanOutPays' $(ls internal/core/*.go | grep -v '_test\.go$') |
        grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true
    awk 'FNR==1{fn=""} /^func /{fn=$0} /^}/{fn=""}
        fn ~ /^func \(r \*resvRun\[[^]]*\]\) computeWave\(/ &&
            /(fanOutPrice|\.grain([^A-Za-z0-9_]|$)|[Pp]ays\()/ && $0 !~ /^[[:space:]]*\/\//{print FILENAME":"FNR":"$0}' \
        internal/core/reservations.go; } | sort -u)
if [ -n "$rulings" ]; then
    echo "fact-guard: a reservations group is ruled once, by roundsPay, before its first round; computeWave fans out every wave of more than one chunk:" >&2
    printf '%s\n' "$rulings" >&2
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

submits=$(awk 'FNR==1{fn=""} /^func /{fn=$0} /\.Dispatch\(|SubmitBatch\(|\.Submit\(/ && $0 !~ /^[[:space:]]*\/\// && fn !~ /^func \(f \*runFrame\) fanOut\(/{print FILENAME":"FNR": "$0}' \
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

recovers=$(awk 'FNR==1{fn=""} /^func /{fn=$0} /recover\(\)/ && $0 !~ /^[[:space:]]*\/\// &&
    !(FILENAME == "./internal/core/frame.go" && fn ~ /^func contain\(/) &&
    !(FILENAME == "./internal/pool/pool.go" && fn ~ /^func \(p \*Pool\) run\(/){print FILENAME":"FNR": "$0}' \
    /dev/null $(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'recover()' .))
if [ -n "$recovers" ]; then
    echo "fact-guard: recover() belongs to internal/core's contain and internal/pool's run only:" >&2
    printf '%s\n' "$recovers" >&2
    exit 1
fi

records=$(grep -rnE 'type (Diagnostic|finding) struct|Severity: *"' --include='*.go' --exclude-dir=bench . |
    grep -v -e '_test\.go:' -e '^\./internal/analysis/analysis\.go:' || true)
if [ -n "$records" ]; then
    echo "fact-guard: a finding is an analysis.Diagnostic with an analysis.Severity; declare no second record:" >&2
    printf '%s\n' "$records" >&2
    exit 1
fi

pools=$(grep -rn 'sync\.Pool' internal/core internal/workload internal/telemetry --include='*.go' |
    grep -v -e '_test\.go:' -e '^[^:]*:[0-9]*:[[:space:]]*//' || true)
if [ -n "$pools" ]; then
    echo "fact-guard: internal/core, internal/workload and internal/telemetry park scratch in stores garbage collection does not empty; use no sync.Pool:" >&2
    printf '%s\n' "$pools" >&2
    exit 1
fi

knobs=$(awk 'FNR==1{st=""}
    /^[[:space:]]*type [A-Za-z0-9_]+ struct \{/{st=$2; at=FNR; g=0; r=0; next}
    st != "" && /^[[:space:]]*}/{if (g && r) print FILENAME":"at": "st; st=""; next}
    st != "" && $0 !~ /^[[:space:]]*\/\// && /(^|[^A-Za-z0-9_])GroupSize([^A-Za-z0-9_]|$)/{g=1}
    st != "" && $0 !~ /^[[:space:]]*\/\// && /(^|[^A-Za-z0-9_])RedoMax([^A-Za-z0-9_]|$)/{r=1}' \
    /dev/null $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*') |
    grep -v -e '^\./internal/core/core\.go:[0-9]*: Options$' -e '^\./stats/stats\.go:[0-9]*: Options$' \
        -e '^\./internal/workload/workload\.go:[0-9]*: SpecOptions$' || true)
if [ -n "$knobs" ]; then
    echo "fact-guard: the engine's knobs live in core.Options, stats.Options and workload.SpecOptions; decode a configuration through profiler.DecodeDependence, declare no copy:" >&2
    printf '%s\n' "$knobs" >&2
    exit 1
fi

tables=$(grep -rnE 'harness\.[A-Za-z0-9_]*Table\(' --include='*.go' . | grep -v '^\./internal/harness/' || true)
rootbench=$(awk '/^func /{fn=$0} /^}/{fn=""} fn ~ /^func Benchmark/ && /harness\./{print FILENAME":"FNR": "$0}' /dev/null ./*.go)
if [ -n "$tables$rootbench" ]; then
    echo "fact-guard: run an experiment through harness.Experiments (statsexp -exp <id>), not a harness table function or a root benchmark:" >&2
    printf '%s\n' "$tables" "$rootbench" | grep . >&2
    exit 1
fi

indexrecs=$(awk 'FNR==1{st=""}
    /^[[:space:]]*type [A-Za-z0-9_]+ struct \{/{st=$2; at=FNR; sd=0; of=0; next}
    st != "" && /^[[:space:]]*}/{if (sd && of) print FILENAME":"at": "st; st=""; next}
    st != "" && /^[[:space:]]*Stride([^A-Za-z0-9_]|$)/{sd=1}
    st != "" && /^[[:space:]]*Offset([^A-Za-z0-9_]|$)/{of=1}' \
    /dev/null $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './internal/ir/*'))
spellings=$(grep -rnE '(case [^:]*|[=!]=[[:space:]]*)"(constant|type|function)"|"(constant|type|function)"[[:space:]]*[=!]=' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=testdata . |
    grep -v '^\./internal/tradeoff/' || true)
if [ -n "$indexrecs$spellings" ]; then
    echo "fact-guard: a declaration is the IR's own row (ir.IndexExpr, ir.TradeoffMeta, ir.DepMeta) and a kind is a tradeoff.Kind; declare no second slot-index record and parse a kind's spelling through tradeoff.ParseKind:" >&2
    printf '%s\n' "$indexrecs" "$spellings" | grep . >&2
    exit 1
fi

kernels=$(awk 'FNR==1{fn=""} /^func /{fn=$0} /^}/{fn=""}
    fn ~ /^func (step|simulateStep|updateModel)\(/ && /(^|[^A-Za-z0-9_])(make|cloneState)\(/ && $0 !~ /^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}' \
    internal/workload/facedet/facedet.go internal/workload/fluidanimate/fluidanimate.go internal/workload/bodytrack/bodytrack.go)
if [ -n "$kernels" ]; then
    echo "fact-guard: facedet.step, fluidanimate.simulateStep and bodytrack.updateModel allocate nothing per call: take scratch from the package's recycle.List and update the state in place:" >&2
    printf '%s\n' "$kernels" >&2
    exit 1
fi

decls=$(git ls-files '*.stats' | grep -vE '^(internal/workload/([a-z]+)/\2\.stats|cmd/statsvet/testdata/corpus/broken/[^/]+\.stats)$' || true)
if [ -n "$decls" ]; then
    echo "fact-guard: a workload's declaration is internal/workload/<name>/<name>.stats, which every reader reads in place; keep no copy:" >&2
    printf '%s\n' "$decls" >&2
    exit 1
fi

examples=$(git ls-files examples)
facade=$(grep -nE '"repro/internal/(platform|energy|backend|analysis)"' stats/*.go | grep -v '_test\.go:' || true)
if [ -n "$examples$facade" ]; then
    echo "fact-guard: stats exports what a STATS user writes, and its examples are Example functions in stats; keep no examples/ tree and no simulator, energy, back-end or analysis import in stats:" >&2
    printf '%s\n' "$examples" "$facade" | grep . >&2
    exit 1
fi

prefilter=$( { grep -nE 'hashFirst|origFPs|Fingerprint\(' $(ls internal/core/*.go | grep -v '_test\.go$') |
        grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true
    awk '/^type StateOps\[/{ops=1; next} ops && /^}/{ops=0} ops && /^[[:space:]]*Fingerprint([^A-Za-z0-9_]|$)/{print FILENAME":"FNR": "$0}' \
        internal/core/core.go
    grep -rnE 'FingerprintFunc|SetFingerprint' stats || true
    grep -rnE 'NoteFingerprint|stats_fingerprint_' internal/obs || true
    grep -rn 'Hash64' internal/mathx || true
    grep -rnE 'Name:[[:space:]]*"fingerprint"' internal/analysis/apivet || true; })
if [ -n "$prefilter" ]; then
    echo "fact-guard: acceptance is one MatchAny call over the originals; the hash-first fingerprint prefilter is retired:" >&2
    printf '%s\n' "$prefilter" >&2
    exit 1
fi

stealing=$( { grep -nHE 'popBack|sweep\(|xorshift|idlers|type[[:space:]]+shard([^A-Za-z0-9_]|$)' $(ls internal/pool/*.go | grep -v '_test\.go$') || true
    grep -nE 'EvSteal|Stolen|StealFrac' $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*') || true
    grep -nHE '\.Metrics\(\)' $(ls internal/core/*.go | grep -v '_test\.go$') | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true; })
if [ -n "$stealing" ]; then
    echo "fact-guard: the pool's workers take tasks from one queue and a run counts its own pool tasks at runFrame.fanOut; the work-stealing deques are retired:" >&2
    printf '%s\n' "$stealing" >&2
    exit 1
fi

private=$(awk '{code=$0; sub(/\/\/.*/, "", code)}
    code ~ /pool\.New\(|SetObserver\(|\.Close\(\)|(^|[^A-Za-z0-9_])private([^A-Za-z0-9_]|$)/{print FILENAME":"FNR": "$0}' \
    $(ls internal/core/*.go | grep -v '_test\.go$'))
if [ -n "$private" ]; then
    echo "fact-guard: a run without Options.Pool leases the process pool (pool.Process) and reports its tasks through Pool.Dispatch; build, observe or close no pool of its own:" >&2
    printf '%s\n' "$private" >&2
    exit 1
fi
