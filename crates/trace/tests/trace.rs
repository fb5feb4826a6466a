//! Integration tests: record/replay round trips across all three
//! protocols (timed and oracle), replay timing pinned on all four,
//! `.dvst` format round trips, composition, mix determinism, and replay of
//! the committed corpus.

use dvs_core::replay::TraceOp;
use dvs_core::{Protocol, RunError, SystemConfig};
use dvs_kernels::{build, BarrierKind, KernelId, KernelParams, LockKind, LockedStruct};
use dvs_stats::RunStats;
use dvs_trace::{
    build_mix, compose, composite, record, replay_oracle, replay_timed, MixSpec, ReplayMode, Trace,
    MAX_EXEC_CYCLES, ORACLE_DELIVERY_BUDGET,
};

const THREADS: usize = 4;

fn cfg(proto: Protocol) -> SystemConfig {
    SystemConfig::small(THREADS, proto)
}

fn record_kernel(id: KernelId) -> Trace {
    let mut params = KernelParams::smoke(THREADS);
    params.iters = 4;
    let workload = build(id, &params);
    let (trace, _) =
        record(&id.token(), &workload, cfg(Protocol::DeNovoSync)).expect("recording must succeed");
    trace
}

/// Replays `trace` on every protocol, timed and oracle, and checks the
/// final image validates everywhere (validation happens inside replay).
fn replay_everywhere(trace: &Trace) {
    for proto in Protocol::EXTENDED {
        for mode in [ReplayMode::Faithful, ReplayMode::Compressed] {
            replay_timed(trace, cfg(proto), mode)
                .unwrap_or_else(|e| panic!("{} timed replay on {proto}: {e}", trace.name));
        }
    }
    for seed in [1, 99] {
        replay_oracle(
            trace,
            cfg(Protocol::DeNovoSync),
            seed,
            ORACLE_DELIVERY_BUDGET,
        )
        .unwrap_or_else(|e| panic!("{} oracle replay (seed {seed}): {e}", trace.name));
    }
}

#[test]
fn tatas_counter_round_trip() {
    let trace = record_kernel(KernelId::Locked(LockedStruct::Counter, LockKind::Tatas));
    assert!(trace.total_ops() > 0);
    replay_everywhere(&trace);
}

/// One replay's timing: cycles, each core's time breakdown (stacking
/// order), flit crossings per traffic class (reporting order) with the
/// message count, and the L1 access counters.
fn timing(proto: Protocol, mode: ReplayMode, s: &RunStats) -> String {
    let time: Vec<Vec<u64>> = s
        .per_core
        .iter()
        .map(|b| b.iter().map(|(_, c)| c).collect())
        .collect();
    let flits: Vec<u64> = s.traffic.iter().map(|(_, f)| f).collect();
    let c = s.cache;
    let cache = [
        c.data_read_hits,
        c.data_read_misses,
        c.data_write_hits,
        c.data_write_misses,
        c.sync_read_hits,
        c.sync_read_misses,
        c.sync_write_hits,
        c.sync_write_misses,
    ];
    format!(
        "{proto} {mode:?}: {} cycles, time {time:?}, flits {flits:?} in {} msgs, cache {cache:?}",
        s.cycles,
        s.traffic.messages()
    )
}

/// Replay timing is pinned, not just the final image: the cycles and the
/// time, traffic and cache accounting of a recorded `tatas:counter` on
/// every protocol, faithful and compressed.
#[test]
fn replay_timing_is_pinned() {
    const PINNED: [&str; 8] = [
        "M Faithful: 8568 cycles, time [[0, 472, 3352, 0, 0, 0], [0, 724, 3071, 0, 0, 0], [0, 2281, 2717, 0, 0, 0], [0, 1210, 3635, 0, 0, 0]], flits [332, 1260, 0, 2644, 2404] in 465 msgs, cache [2, 14, 3, 29, 2, 30, 13, 35]",
        "M Compressed: 8508 cycles, time [[0, 95, 3305, 0, 0, 0], [0, 105, 3072, 0, 0, 0], [0, 126, 2717, 0, 0, 0], [0, 111, 3681, 0, 0, 0]], flits [332, 1260, 0, 2644, 2404] in 465 msgs, cache [2, 14, 3, 29, 2, 30, 13, 35]",
        "DS0 Faithful: 5241 cycles, time [[0, 474, 2161, 0, 0, 0], [0, 727, 2210, 0, 0, 0], [0, 2283, 1626, 0, 0, 0], [0, 1214, 1986, 0, 0, 0]], flits [0, 0, 940, 560, 328] in 293 msgs, cache [2, 14, 2, 30, 2, 30, 24, 24]",
        "DS0 Compressed: 5043 cycles, time [[0, 97, 2161, 0, 0, 0], [0, 108, 2210, 0, 0, 0], [0, 128, 1601, 0, 0, 0], [0, 115, 2019, 0, 0, 0]], flits [0, 0, 940, 560, 328] in 293 msgs, cache [2, 14, 2, 30, 2, 30, 24, 24]",
        "DS Faithful: 5250 cycles, time [[0, 474, 2180, 0, 10, 0], [0, 727, 2210, 0, 5, 0], [0, 2283, 1612, 0, 1, 0], [0, 1214, 1991, 0, 3, 0]], flits [0, 0, 956, 560, 328] in 293 msgs, cache [2, 14, 2, 30, 2, 30, 24, 24]",
        "DS Compressed: 5062 cycles, time [[0, 97, 2180, 0, 10, 0], [0, 108, 2210, 0, 5, 0], [0, 128, 1586, 0, 1, 0], [0, 115, 2026, 0, 3, 0]], flits [0, 0, 956, 560, 328] in 293 msgs, cache [2, 14, 2, 30, 2, 30, 24, 24]",
        "GCS Faithful: 5988 cycles, time [[0, 471, 2312, 0, 0, 0], [0, 721, 2243, 0, 0, 0], [0, 2273, 2095, 0, 0, 0], [0, 1207, 2180, 0, 0, 0]], flits [0, 108, 1360, 560, 328] in 330 msgs, cache [2, 14, 2, 30, 0, 32, 0, 48]",
        "GCS Compressed: 5818 cycles, time [[0, 94, 2312, 0, 0, 0], [0, 102, 2246, 0, 0, 0], [0, 118, 2074, 0, 0, 0], [0, 108, 2202, 0, 0, 0]], flits [0, 108, 1360, 560, 328] in 330 msgs, cache [2, 14, 2, 30, 0, 32, 0, 48]",
    ];
    let trace = record_kernel(KernelId::Locked(LockedStruct::Counter, LockKind::Tatas));
    assert_eq!(trace.fingerprint(), 0x57fc_7dd7_383a_91d2);
    let mut got = Vec::new();
    for proto in Protocol::EXTENDED {
        for mode in [ReplayMode::Faithful, ReplayMode::Compressed] {
            let stats = replay_timed(&trace, cfg(proto), mode)
                .unwrap_or_else(|e| panic!("{proto} {mode:?}: {e}"));
            got.push(timing(proto, mode, &stats));
        }
    }
    assert_eq!(got, PINNED, "replay timing moved:\n{}", got.join("\n"));
}

#[test]
fn barrier_round_trip() {
    let trace = record_kernel(KernelId::Barrier(BarrierKind::Central, false));
    replay_everywhere(&trace);
}

#[test]
fn composite_round_trip() {
    let workload = composite(THREADS, 3, 24);
    let (trace, _) =
        record("composite:3:24", &workload, cfg(Protocol::DeNovoSync)).expect("record");
    replay_everywhere(&trace);
}

#[test]
fn recording_protocol_does_not_matter() {
    // A trace recorded on MESI replays to the same finals as one recorded
    // on DS: the stable state is protocol-independent.
    let mut params = KernelParams::smoke(THREADS);
    params.iters = 4;
    let workload = build(
        KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
        &params,
    );
    let (on_mesi, _) = record("t", &workload, cfg(Protocol::Mesi)).expect("record on MESI");
    let (on_ds, _) = record("t", &workload, cfg(Protocol::DeNovoSync)).expect("record on DS");
    assert_eq!(on_mesi.fingerprint(), on_ds.fingerprint());
    replay_everywhere(&on_mesi);
}

#[test]
fn format_round_trip_is_identity() {
    let trace = record_kernel(KernelId::Locked(LockedStruct::Counter, LockKind::Tatas));
    let text = trace.render();
    let parsed = Trace::parse(&text).expect("parse rendered trace");
    assert_eq!(parsed.render(), text, "render∘parse∘render must be stable");
    assert_eq!(parsed.fingerprint(), trace.fingerprint());
    assert_eq!(parsed.cores(), trace.cores());
    assert_eq!(parsed.init, trace.init);
    assert_eq!(parsed.finals, trace.finals);
    assert_eq!(parsed.ops, trace.ops);
    // The parsed trace is replayable (layout survived the round trip).
    replay_timed(&parsed, cfg(Protocol::DeNovoSync), ReplayMode::Compressed).expect("replay");
}

#[test]
fn parse_rejects_garbage() {
    assert!(Trace::parse("").is_err());
    assert!(Trace::parse("dvst 99\n").is_err());
    let err = Trace::parse("dvst 1\ncores 1\nbogus line\n").unwrap_err();
    assert!(err.contains("line 3"), "error should name the line: {err}");
    let err = Trace::parse("dvst 1\ncores 1\ncore 0 2\nhalt\n").unwrap_err();
    assert!(err.contains("missing"), "truncated stream: {err}");
}

/// The fingerprint hash is pinned: the committed tatas counter trace
/// hashes to the value `dvs trace` prints for every recording of it.
#[test]
fn corpus_fingerprint_is_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/tatas-counter.dvst");
    let text = std::fs::read_to_string(path).expect("read corpus trace");
    let trace = Trace::parse(&text).expect("corpus trace parses");
    assert_eq!(trace.fingerprint(), 0x57fc_7dd7_383a_91d2);
}

/// Corpus mutants with malformed layouts: an overlapping segment, a
/// segment naming an undeclared region and an `inv` of an undeclared
/// region are parse errors, not panics or silent no-op invalidations.
#[test]
fn parse_rejects_malformed_layouts() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/tatas-counter.dvst");
    let text = std::fs::read_to_string(path).expect("read corpus trace");
    let first_inv = text.replacen("\ninv 1\n", "\ninv 65535\n", 1);
    let inv_line = 1 + text
        .lines()
        .position(|l| l == "inv 1")
        .expect("an `inv 1` line");
    let cases = [
        (
            text.replace("seg 140 256 0 eb_arrive", "seg 100 256 0 eb_arrive"),
            "overlapping segments".to_owned(),
        ),
        (
            text.replace("seg 340 64 0 lock", "seg 340 64 7 lock"),
            "undeclared region 7".to_owned(),
        ),
        (
            first_inv,
            format!("line {inv_line}: `inv 65535` names undeclared region 65535"),
        ),
    ];
    // The stream records: a second `cores` record used to drop every op
    // parsed before it, a repeated core block appended to the first, and a
    // declared core with no block replayed as an immediate halt.
    let streams = [
        (
            "dvst 1\ncores 1\ncore 0 2\nex 5\nhalt\ncores 1\n",
            "line 6: second `cores` record (first on line 2)",
        ),
        (
            "dvst 1\ncores 1\ncore 0 1\nex 5\ncore 0 1\nhalt\n",
            "line 5: second block for core 0 (first on line 3)",
        ),
        (
            "dvst 1\ncores 2\ncore 0 1\nhalt\n",
            "line 2: core 1 is declared but has no `core` block",
        ),
    ];
    let streams = streams.map(|(t, want)| (t.to_owned(), want.to_owned()));
    for (mutant, want) in cases.into_iter().chain(streams) {
        assert_ne!(mutant, text, "corpus trace lost the line `{want}` mutates");
        let err = Trace::parse(&mutant).unwrap_err();
        assert!(err.contains(&want), "want `{want}`: {err}");
    }
}

/// Shrunk from a corpus mutant that set one `ex` to `u64::MAX`: replay's
/// `now + cycles` wrapped and the scheduler panicked. The parser now
/// rejects any `ex` above [`MAX_EXEC_CYCLES`] and names the bound.
#[test]
fn parse_bounds_exec_cycles() {
    let mutant = "dvst 1\ncores 1\ncore 0 1\nex 18446744073709551615\n";
    let err = Trace::parse(mutant).unwrap_err();
    assert!(err.contains("line 4"), "error should name the line: {err}");
    assert!(
        err.contains(&MAX_EXEC_CYCLES.to_string()),
        "error should name the bound: {err}"
    );
    // The bound itself is accepted and replays.
    let at_bound = format!("dvst 1\ncores 1\ncore 0 2\nex {MAX_EXEC_CYCLES}\nhalt\n");
    let trace = Trace::parse(&at_bound).expect("ex at the bound parses");
    let mut one_core = SystemConfig::small(1, Protocol::DeNovoSync);
    one_core.max_cycles = 2 * MAX_EXEC_CYCLES;
    replay_timed(&trace, one_core, ReplayMode::Faithful).expect("replay");
}

/// A think-time gap longer than [`MAX_EXEC_CYCLES`] records as several
/// `ex` ops, so the trace reads back, and replays in the recorded time.
#[test]
fn long_delays_record_as_readable_exec_runs() {
    const DELAY: u64 = 3_000_000_000;
    let mut lb = dvs_mem::LayoutBuilder::new();
    lb.region("data");
    let mut program = dvs_vm::Asm::new("sleeper");
    program
        .delay(DELAY, dvs_stats::TimeComponent::Compute)
        .halt();
    let workload = dvs_kernels::Workload::new(
        lb.build(),
        vec![program.build()],
        Vec::new(),
        Vec::new(),
        Box::new(|_| Ok(())),
    );
    let mut one_core = SystemConfig::small(1, Protocol::DeNovoSync);
    one_core.max_cycles = 10_000_000_000;
    let (trace, recorded) = record("sleeper", &workload, one_core).expect("record");
    let exec: Vec<u64> = trace.ops[0]
        .iter()
        .filter_map(|op| match *op {
            TraceOp::Exec { cycles } => Some(cycles),
            _ => None,
        })
        .collect();
    assert!(exec.len() > 1, "{exec:?}");
    assert!(exec.iter().all(|&c| c <= MAX_EXEC_CYCLES), "{exec:?}");
    assert!(exec.iter().sum::<u64>() > DELAY, "{exec:?}");
    let parsed = Trace::parse(&trace.render()).expect("a recorded trace reads back");
    let replayed = replay_timed(&parsed, one_core, ReplayMode::Faithful).expect("replay");
    assert_eq!(replayed.cycles, recorded.cycles);
}

#[test]
fn tampered_result_is_caught_in_flight() {
    let trace = record_kernel(KernelId::Locked(LockedStruct::Counter, LockKind::Tatas));
    let mut tampered = trace.clone();
    // Flip the recorded result of the first validated sync op we find.
    'outer: for stream in &mut tampered.ops {
        let mut ops = stream.to_vec();
        for op in &mut ops {
            if let TraceOp::SyncLoad {
                result,
                has_result: true,
                ..
            }
            | TraceOp::Spin {
                result,
                has_result: true,
                ..
            }
            | TraceOp::Rmw {
                result,
                has_result: true,
                ..
            } = op
            {
                *result ^= 0x1;
                *stream = ops.into();
                break 'outer;
            }
        }
    }
    let err = replay_timed(&tampered, cfg(Protocol::DeNovoSync), ReplayMode::Faithful)
        .expect_err("tampered result must fail validation");
    let msg = err.to_string();
    assert!(
        msg.contains("replay"),
        "divergence should be reported as a replay violation: {msg}"
    );
}

#[test]
fn tampered_final_is_caught_after_the_run() {
    let trace = record_kernel(KernelId::Locked(LockedStruct::Counter, LockKind::Tatas));
    let mut tampered = trace.clone();
    let last = tampered.finals.len() - 1;
    tampered.finals[last].1 ^= 0xff;
    match replay_timed(&tampered, cfg(Protocol::DeNovoSync), ReplayMode::Faithful) {
        Err(RunError::Check(m)) => assert!(m.contains("diverged"), "{m}"),
        // The tampered word may also be an in-flight-validated sync word.
        Err(other) => panic!("expected Check, got {other}"),
        Ok(_) => panic!("tampered finals must not validate"),
    }
}

#[test]
fn core_count_mismatch_is_rejected() {
    let trace = record_kernel(KernelId::Locked(LockedStruct::Counter, LockKind::Tatas));
    let bad = SystemConfig::small(16, Protocol::DeNovoSync);
    match replay_timed(&trace, bad, ReplayMode::Faithful) {
        Err(RunError::Check(m)) => assert!(
            m.contains("trace drives 4 cores but the config has 16"),
            "{m}"
        ),
        other => panic!("expected a core-count Check, got {other:?}"),
    }
}

#[test]
fn composed_trace_replays_all_phases() {
    let a = record_kernel(KernelId::Locked(LockedStruct::Counter, LockKind::Tatas));
    let b = {
        let workload = composite(THREADS, 2, 16);
        record("composite:2:16", &workload, cfg(Protocol::DeNovoSync))
            .expect("record")
            .0
    };
    let c = record_kernel(KernelId::Barrier(BarrierKind::Central, false));
    let composed = compose("three_phase", &[&a, &b, &c]).expect("compose");
    assert_eq!(composed.cores(), THREADS);
    assert!(composed.total_ops() > a.total_ops() + b.total_ops() + c.total_ops());
    replay_everywhere(&composed);
    // Format round trip survives composition (join segment, prefixed
    // regions, shifted addresses).
    let parsed = Trace::parse(&composed.render()).expect("parse composed");
    assert_eq!(parsed.render(), composed.render());
    replay_timed(&parsed, cfg(Protocol::Mesi), ReplayMode::Compressed).expect("replay parsed");
}

#[test]
fn compose_rejects_mismatched_core_counts() {
    let a = record_kernel(KernelId::Locked(LockedStruct::Counter, LockKind::Tatas));
    let mut params = KernelParams::smoke(16);
    params.iters = 2;
    let w = build(
        KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
        &params,
    );
    let (b, _) = record("wide", &w, SystemConfig::small(16, Protocol::DeNovoSync)).expect("rec");
    assert!(compose("bad", &[&a, &b]).is_err());
}

#[test]
fn mix_is_deterministic_and_replayable() {
    let spec = MixSpec {
        seed: 11,
        phases: 2,
        threads: THREADS,
    };
    let one = build_mix(spec).expect("mix");
    let two = build_mix(spec).expect("mix again");
    assert_eq!(
        one.render(),
        two.render(),
        "same spec must yield byte-equal traces"
    );
    assert_eq!(one.name, spec.name());
    replay_timed(&one, cfg(Protocol::Mesi), ReplayMode::Compressed).expect("mix on MESI");
    replay_timed(&one, cfg(Protocol::DeNovoSync), ReplayMode::Faithful).expect("mix on DS");
    // Different seeds make different traces.
    let other = build_mix(MixSpec { seed: 12, ..spec }).expect("mix seed 12");
    assert_ne!(one.render(), other.render());
}

#[test]
fn mix_rejects_bad_specs() {
    assert!(build_mix(MixSpec {
        seed: 1,
        phases: 0,
        threads: 4
    })
    .is_err());
    assert!(build_mix(MixSpec {
        seed: 1,
        phases: 1,
        threads: 6
    })
    .is_err());
    assert!(build_mix(MixSpec {
        seed: 1,
        phases: 1,
        threads: 1
    })
    .is_err());
}

/// Every committed corpus trace must parse, render back to its exact
/// text, match its pinned fingerprint (encoded in a `# fingerprint`
/// comment would be nicer, but the finals ARE the pin), and replay
/// cleanly on all four protocols.
#[test]
fn corpus_replays_on_all_protocols() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dvst"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "committed corpus must not be empty");
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("read corpus trace");
        let trace = Trace::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            trace.render() == text,
            "{}: parse then render changed the text",
            path.display()
        );
        let n = trace.cores();
        for proto in Protocol::EXTENDED {
            replay_timed(
                &trace,
                SystemConfig::small(n, proto),
                ReplayMode::Compressed,
            )
            .unwrap_or_else(|e| panic!("{} on {proto}: {e}", path.display()));
        }
        replay_oracle(
            &trace,
            SystemConfig::small(n, Protocol::DeNovoSync),
            5,
            ORACLE_DELIVERY_BUDGET,
        )
        .unwrap_or_else(|e| panic!("{} oracle: {e}", path.display()));
    }
}
