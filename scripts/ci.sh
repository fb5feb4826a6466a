#!/usr/bin/env bash
# Full CI gate: formatting, lints, tier-1 verification, and the chaos matrix.
# Everything runs offline against the committed Cargo.lock — no network.
#
# Usage: ci.sh [--stage <name>]
#   With no arguments every stage runs in order; --stage runs exactly one,
#   for local iteration (e.g. `scripts/ci.sh --stage gcs`).
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES="fmt lint tier1 chaos check check-scale campaign gcs step telemetry fuzz serve trace tables"

ONLY=""
while [ $# -gt 0 ]; do
  case "$1" in
    --stage)
      ONLY=${2:?--stage needs a name}
      shift 2
      ;;
    *)
      echo "usage: $0 [--stage <name>]   (stages: $STAGES)" >&2
      exit 2
      ;;
  esac
done

# Temp dirs registered by stages, cleaned on exit (paths are space-free).
CLEANUP=""
# The benches rewrite the committed BENCH_*.json artifacts with this host's
# measurements. Keep a copy and put it back after every stage and on any
# exit, so a CI run leaves the tree as it found it.
SAVED=$(mktemp -d)
CLEANUP="$SAVED"
cp BENCH_*.json "$SAVED/"
restore() { cp "$SAVED"/BENCH_*.json .; }
# shellcheck disable=SC2064
trap 'restore; rm -rf $CLEANUP' EXIT

stage_fmt() {
  echo "== cargo fmt --check =="
  cargo fmt --check
}

stage_lint() {
  echo "== cargo clippy (deny warnings) =="
  cargo clippy --workspace --all-targets --offline -- -D warnings
  # The system's observer owns the telemetry handle: controllers and MSHRs
  # report what they observe as actions and must never hold one.
  echo "== no telemetry handle in a controller or MSHR =="
  if grep -rnw Telemetry crates/core/src/mesi crates/core/src/denovo crates/mem/src; then
    echo "a controller or MSHR names Telemetry; report through Action::Observe" >&2
    exit 1
  fi
}

stage_tier1() {
  echo "== tier-1: release build + full test suite =="
  cargo build --release --offline
  cargo build --release --offline --examples
  # The benchmark package is outside the workspace; building it against its
  # own lockfile catches API or dependency drift before the benchmark does.
  cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
  cargo test -q --offline --workspace
}

stage_chaos() {
  echo "== chaos matrix (fixed fault seeds, invariant checking on) =="
  cargo test -q --offline --test chaos
}

stage_check() {
  echo "== model-checker smoke (bounded-depth, 2 litmus x 4 protocols + 2 mutations) =="
  # The output is pinned byte-for-byte: state counts, catch depths and the
  # counterexample forensics. A difference is a behaviour change.
  cargo run -q --release --offline -p dvs-check --example smoke | diff -u tests/golden/check_smoke.txt -
}

stage_check_scale() {
  echo "== check-scale smoke (deep-exploration floors: throughput, spill RSS, swarm, resume) =="
  cargo build --release --offline --bin dvs
  CHECK=(./target/release/dvs check)
  # Pull one key=value token out of a `dvs check` report line.
  ck_tok() { echo "$1" | tr ' ' '\n' | sed -n "s/^$2=//p" | tail -1; }

  # Throughput floor: a 100k-expansion exact exploration of tatas8 must
  # sustain >= 2000 unique states/s (a single release core does ~6k; the
  # floor only catches order-of-magnitude regressions on slow CI hosts).
  out=$("${CHECK[@]}" explore --litmus tatas8 --proto M --max-states 100000); echo "$out"
  rate=$(ck_tok "$out" states_per_s)
  [ "$rate" -ge 2000 ] || { echo "states/s floor missed: $rate < 2000"; exit 1; }

  # Spill-tier RSS ceiling: a 4 MB visited budget on a ~5.6 MB working set
  # must actually page shards out, and the process high-water mark must
  # stay under 64 MB (the un-spilled run of the same space needs none).
  out=$("${CHECK[@]}" explore --litmus tatas8 --proto M --max-states 300000 --spill-budget 4000000); echo "$out"
  spilled=$(ck_tok "$out" spilled_entries)
  rss=$(ck_tok "$out" peak_rss)
  [ "$spilled" -gt 0 ] || { echo "spill budget never fired"; exit 1; }
  [ "$rss" -le $((64 * 1024 * 1024)) ] || { echo "spill-tier peak RSS over 64MB: $rss"; exit 1; }

  # Swarm mutation-catch: randomized probes sharing one bitstate filter
  # must find the seeded MESI mutation (exit 3 = violation found).
  out=$("${CHECK[@]}" swarm --litmus tatas --proto M --mutation mesi-skip-invalidate \
        --probes 64 --probe-depth 2000 --probe-states 20000 --seed 1) && rc=0 || rc=$?
  echo "$out"
  [ "$rc" -eq 3 ] || { echo "swarm did not catch the mutation (exit $rc)"; exit 1; }
  case "$out" in *"verdict=violated"*) ;; *) echo "swarm report lacks verdict=violated"; exit 1; esac

  # Checkpoint resume drill: kill -9 a slowed deepening run after its first
  # checkpoint lands, resume it, and demand the same verdict and cumulative
  # unique-state count as an uninterrupted invocation.
  DEEPEN="deepen --litmus tatas --proto M --start 6 --step 2 --max-depth 40"
  ref=$("${CHECK[@]}" $DEEPEN); echo "$ref"
  CDIR=$(mktemp -d)
  CLEANUP="$CLEANUP $CDIR"
  CKPT="$CDIR/deepen.ckpt"
  "${CHECK[@]}" $DEEPEN --checkpoint "$CKPT" --round-delay-ms 500 &
  victim=$!
  for _ in $(seq 1 400); do
    [ -f "$CKPT" ] && break
    kill -0 "$victim" 2>/dev/null || { echo "victim finished before the kill"; exit 1; }
    sleep 0.025
  done
  kill -9 "$victim"; wait "$victim" 2>/dev/null || true
  [ -f "$CKPT" ] || { echo "no checkpoint survived the kill"; exit 1; }
  resumed=$("${CHECK[@]}" $DEEPEN --checkpoint "$CKPT"); echo "$resumed"
  [ "$(ck_tok "$resumed" resumed)" = "true" ] || { echo "run ignored the checkpoint"; exit 1; }
  [ "$(ck_tok "$resumed" verdict)" = "$(ck_tok "$ref" verdict)" ] || { echo "resumed verdict differs"; exit 1; }
  [ "$(ck_tok "$resumed" unique)" = "$(ck_tok "$ref" unique)" ] || { echo "resumed unique-state count differs"; exit 1; }
  [ ! -f "$CKPT" ] || { echo "completed resume left its checkpoint behind"; exit 1; }
}

stage_campaign() {
  echo "== campaign smoke (reduced fig3+fig7 grid at 1/2/4 workers, digest must match) =="
  # The bench asserts the results digest is identical at every worker count
  # and equals the committed contract value (4d5df26dca1b09bc).
  DVS_QUICK=1 DVS_WORKERS=4 cargo bench --offline -p dvs-bench --bench campaign
}

stage_gcs() {
  echo "== gcs smoke (litmus x gcs, negative controls, 4-protocol grid digest compare) =="
  # The timed litmus suite runs every litmus under Protocol::EXTENDED —
  # GCS included — stock and chaos-perturbed.
  cargo test -q --offline --test litmus
  # Fuzz corpus replay with the GCS negative controls: gcs-skip-update and
  # gcs-drop-notify must be caught and re-shrunk to their committed floors.
  cargo test -q --offline -p dvs-fuzz --test corpus -- controls
  # The 24-kernel x 4-protocol comparison grid; the bench itself asserts
  # the results digest matches a single-worker run and the committed
  # contract value (93aa24a924a743e6), and that the per-protocol
  # sync_notifies/registration_recalls totals (GCS 697/253, M/DS0/DS 0/0)
  # match theirs, before writing BENCH_gcs.json.
  DVS_WORKERS=2 cargo bench --offline -p dvs-bench --bench gcs_compare
}

stage_step() {
  echo "== step_micro (stepping-throughput floors; see BENCH_step.json) =="
  # Perf-regression gate for the hot path: best-of-2 single-thread run of the
  # fig3 quick grid + the 500-case fuzz batch; fails below the committed
  # events/s and cases/s floors (set above the pre-refactor baseline).
  DVS_STEP_ITERS=2 cargo bench --offline -p dvs-bench --bench step_micro
}

stage_telemetry() {
  echo "== telemetry smoke (zero-perturbation + Perfetto export validation) =="
  # Captures one tatas run per backend (M/DS0/DS/GCS) with a recorder sink,
  # asserts the stats/metrics match the no-telemetry baseline, validates the
  # exported Chrome trace JSON, and writes TRACE_telemetry_*.json +
  # BENCH_telemetry.json.
  DVS_QUICK=1 cargo bench --offline -p dvs-bench --bench telemetry_timeline
  # The committed timelines pin every backend's event stream byte-for-byte:
  # a regenerated TRACE_telemetry_*.json that differs is an observation change.
  git diff --exit-code -- 'TRACE_telemetry_*.json'
  # Digest invariance across telemetry policies and worker counts.
  cargo test -q --offline -p dvs-campaign --test telemetry
}

stage_fuzz() {
  echo "== fuzz smoke (fixed seeds; fails on divergence, corpus drift, or missed controls) =="
  # Corpus replay: benign cases green with committed fingerprints, negative
  # controls caught and re-shrunk to their committed floors.
  cargo test -q --offline -p dvs-fuzz --test corpus
  # A fixed-seed stock-protocol hunt: any divergence, sick case, or panic
  # exits nonzero, and the result digest must not depend on the worker count.
  cargo build --release --offline --bin dvs
  hunt() { ./target/release/dvs fuzz hunt 0 60 --workers "$1"; }
  d2=$(hunt 2); echo "$d2"
  d1=$(hunt 1); echo "$d1"
  [ "${d1##*digest=}" = "${d2##*digest=}" ] || { echo "fuzz digest differs across worker counts"; exit 1; }
}

stage_serve() {
  echo "== serve smoke (crash-safe job service: kill -9 resume + warm cache) =="
  # Robustness artifact: cold + warm + corruption-repair + retry counters.
  DVS_QUICK=1 cargo bench --offline -p dvs-bench --bench serve_matrix
  # Crash drill against the real binary: SIGKILL a slowed run mid-job, resume,
  # and demand the digest match an uninterrupted run; then re-run warm and
  # demand >= 90% cache hits.
  cargo build --release --offline --bin dvs
  SERVE=(./target/release/dvs serve)
  SDIR=$(mktemp -d)
  CLEANUP="$CLEANUP $SDIR"
  ref=$("${SERVE[@]}" submit --dir "$SDIR/ref" --grid smoke --workers 2); echo "$ref"
  want=${ref##*digest=}
  "${SERVE[@]}" submit --dir "$SDIR/victim" --grid smoke --workers 2 --cell-delay-ms 200 &
  victim=$!
  # Kill as soon as the journal shows the first completed cell.
  for _ in $(seq 1 400); do
    grep -q '^cell ' "$SDIR/victim/journal.log" 2>/dev/null && break
    kill -0 "$victim" 2>/dev/null || { echo "victim finished before the kill"; exit 1; }
    sleep 0.025
  done
  kill -9 "$victim"; wait "$victim" 2>/dev/null || true
  resumed=$("${SERVE[@]}" resume --dir "$SDIR/victim" --workers 2); echo "$resumed"
  [ "${resumed##*digest=}" = "$want" ] || { echo "resumed digest differs from uninterrupted run"; exit 1; }
  warm=$("${SERVE[@]}" submit --dir "$SDIR/ref" --grid smoke --workers 2); echo "$warm"
  [ "${warm##*digest=}" = "$want" ] || { echo "warm digest differs"; exit 1; }
  hits=$(echo "$warm" | sed -n 's/.*hits=\([0-9]*\).*/\1/p' | tail -1)
  cells=$(echo "$warm" | sed -n 's/.*cells=\([0-9]*\).*/\1/p' | tail -1)
  [ $((hits * 10)) -ge $((cells * 9)) ] || { echo "warm hit rate below 90% ($hits/$cells)"; exit 1; }
  "${SERVE[@]}" verify-store --dir "$SDIR/ref"
  # The journal tail sees the whole story and exits once every job seals.
  "${SERVE[@]}" status --dir "$SDIR/ref" --follow --poll-ms 10 | tail -3
}

stage_trace() {
  echo "== trace smoke (record/replay across protocols + committed corpus) =="
  # Committed .dvst corpus: parse, replay on MESI/DS0/DS timed + the oracle,
  # validate every pinned final; plus format/compose/mix round-trip tests and
  # the pinned replay timing on all four protocols.
  cargo test -q --offline -p dvs-trace --test trace
  # Record a kernel with `dvs trace`, replay it on all four protocols, both
  # faithful and compressed, and demand the pinned fingerprint is reproduced
  # everywhere; the seeded oracle replay must also take its pinned number
  # of deliveries.
  cargo build --release --offline --bin dvs
  DVST=(./target/release/dvs trace)
  TDIR=$(mktemp -d)
  CLEANUP="$CLEANUP $TDIR"
  fp=57fc7dd7383a91d2
  "${DVST[@]}" record tatas:counter --threads 4 --iters 4 -o "$TDIR/t.dvst"
  for proto in M DS0 DS GCS; do
    for mode in "" --compressed; do
      out=$("${DVST[@]}" replay "$TDIR/t.dvst" --proto "$proto" ${mode:+"$mode"}); echo "$out"
      [ "${out##*fingerprint }" = "$fp" ] || { echo "fingerprint differs from $fp on $proto $mode"; exit 1; }
    done
  done
  out=$("${DVST[@]}" replay "$TDIR/t.dvst" --oracle --seed 9); echo "$out"
  [ "$out" = "oracle replay ok: 293 deliveries, fingerprint $fp" ] || { echo "oracle replay differs from 293 deliveries, $fp"; exit 1; }
  # Replay-vs-VM throughput artifact; quick mode gates the speedup at >= 2x.
  DVS_QUICK=1 cargo bench --offline -p dvs-bench --bench trace_matrix
}

stage_tables() {
  echo "== dvs tables (DESIGN.md's transition tables match the code) =="
  cargo build --release --offline --bin dvs
  # Each embedded block sits between `<!-- dvs tables --proto P -->` and
  # `<!-- end dvs tables -->` and must be that command's output verbatim.
  protos=$(sed -n 's/^<!-- dvs tables --proto \([a-z0-9]*\) -->$/\1/p' DESIGN.md)
  [ -n "$protos" ] || { echo "DESIGN.md embeds no dvs tables blocks"; exit 1; }
  for p in $protos; do
    sed -n "/^<!-- dvs tables --proto $p -->\$/,/^<!-- end dvs tables -->\$/p" DESIGN.md | sed '1d;$d' |
      diff -u - <(./target/release/dvs tables --proto "$p") ||
      { echo "DESIGN.md's --proto $p tables differ from dvs tables"; exit 1; }
  done
}

if [ -n "$ONLY" ]; then
  case " $STAGES " in
    *" $ONLY "*) "stage_${ONLY//-/_}" ;;
    *)
      echo "unknown stage \"$ONLY\" (stages: $STAGES)" >&2
      exit 2
      ;;
  esac
  echo "stage $ONLY OK"
else
  for s in $STAGES; do "stage_${s//-/_}"; restore; done
  echo "CI OK"
fi
