//! Trace-level composition: stitch recorded phases into one multi-phase
//! trace with synthetic join barriers between them.
//!
//! Each phase's address space is shifted by a uniform per-phase delta so
//! segments never collide; recorded dependency ordinals, operand values,
//! and results ride along verbatim (per-word sync histories are untouched
//! by a uniform shift). Between phases every core runs a synthetic join:
//! `fence; fai(join); spin join == n` — expressed directly as trace ops
//! with exact ordinals, so the composed trace is a valid recording of a
//! program that never ran.
//!
//! Note on pointer-shaped data: recorded *values* are not shifted, so a
//! word that held an address in the original run still holds the
//! pre-shift address in the composed trace. Replay never interprets
//! loaded values (there is no register file), so this is harmless — but
//! the composed final image documents the original pointers, not shifted
//! ones.

use crate::format::Trace;
use dvs_core::replay::{RmwKind, TraceOp};
use dvs_mem::layout::Region;
use dvs_mem::{Addr, MemoryLayout, Segment, WordAddr, LINE_BYTES};
use dvs_vm::isa::Cond;
use std::collections::BTreeMap;
use std::sync::Arc;

fn shift_addr(a: Addr, delta: u64) -> Addr {
    Addr::new(a.raw() + delta)
}

fn shift_op(mut op: TraceOp, delta: u64, region_off: u16) -> TraceOp {
    if let TraceOp::SelfInv(r) = &mut op {
        r.0 += region_off;
    } else if let Some(a) = op.addr_mut() {
        *a = shift_addr(*a, delta);
    }
    op
}

/// Composes `phases` (in order) into one trace named `name`.
///
/// # Errors
///
/// If `phases` is empty or the phases drive different core counts.
pub fn compose(name: &str, phases: &[&Trace]) -> Result<Trace, String> {
    let Some(first) = phases.first() else {
        return Err("compose needs at least one phase".into());
    };
    let n = first.cores();
    for (k, p) in phases.iter().enumerate() {
        if p.cores() != n {
            return Err(format!(
                "phase {k} ({}) drives {} cores, phase 0 drives {n}",
                p.name,
                p.cores()
            ));
        }
    }
    // A uniform per-phase shift: big enough that no phase's segments can
    // reach into the next slot, line-aligned.
    let span = phases
        .iter()
        .flat_map(|p| p.layout.segments())
        .map(|s| s.base.raw() + s.bytes)
        .max()
        .unwrap_or(0);
    let stride = (span + LINE_BYTES).next_multiple_of(0x1000).max(0x1000);

    let mut region_names: Vec<String> = Vec::new();
    let mut segments: Vec<Segment> = Vec::new();
    let mut init: Vec<(Addr, u64)> = Vec::new();
    let mut finals: BTreeMap<WordAddr, u64> = BTreeMap::new();
    let mut streams: Vec<Vec<TraceOp>> = vec![Vec::new(); n];

    let joins = phases.len().saturating_sub(1);
    let join_base = phases.len() as u64 * stride;
    let join_word = |b: usize| Addr::new(join_base + b as u64 * LINE_BYTES);

    for (k, phase) in phases.iter().enumerate() {
        let delta = k as u64 * stride;
        let region_off = region_names.len() as u16;
        for r in 0..phase.layout.regions() {
            let rname = phase.layout.region_name(Region(r as u16)).unwrap_or("?");
            region_names.push(format!("p{k}.{rname}"));
        }
        for seg in phase.layout.segments() {
            segments.push(Segment {
                name: format!("p{k}.{}", seg.name),
                base: shift_addr(seg.base, delta),
                bytes: seg.bytes,
                region: Region(region_off + seg.region.0),
            });
        }
        for &(a, v) in &phase.init {
            init.push((shift_addr(a, delta), v));
        }
        for &(w, v) in &phase.finals {
            finals.insert(shift_addr(w.base(), delta).word(), v);
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            let ops = &phase.ops[i];
            let body = match ops.last() {
                Some(TraceOp::Halt) => &ops[..ops.len() - 1],
                _ => &ops[..],
            };
            stream.extend(body.iter().map(|&op| shift_op(op, delta, region_off)));
            if k < joins {
                let addr = join_word(k);
                stream.push(TraceOp::Fence);
                stream.push(TraceOp::Rmw {
                    addr,
                    kind: RmwKind::Fai,
                    a: 1,
                    b: 0,
                    dep: i as u32,
                    rwait: 0,
                    result: i as u64,
                    has_result: true,
                });
                stream.push(TraceOp::Spin {
                    addr,
                    cond: Cond::Eq,
                    rhs: n as u64,
                    dep: n as u32,
                    result: n as u64,
                    has_result: true,
                });
            } else {
                stream.push(TraceOp::Halt);
            }
        }
    }
    if joins > 0 {
        region_names.push("compose".to_owned());
        let jr = Region((region_names.len() - 1) as u16);
        segments.push(Segment {
            name: "compose.join".to_owned(),
            base: Addr::new(join_base),
            bytes: joins as u64 * LINE_BYTES,
            region: jr,
        });
        for b in 0..joins {
            finals.insert(join_word(b).word(), n as u64);
        }
    }
    Ok(Trace {
        name: name.to_owned(),
        recorded_on: format!("composed({})", phases.len()),
        layout: Arc::new(MemoryLayout::from_parts(segments, region_names)?),
        init,
        finals: finals.into_iter().collect(),
        ops: streams.into_iter().map(Arc::from).collect(),
    })
}
