//! The versioned, line-oriented `.dvst` trace format.
//!
//! A trace file is self-contained: it carries the memory layout (regions
//! and segments), the preloaded image, the per-core op streams, and the
//! pinned *final* image of every word the recorded run touched. Replay on
//! any protocol validates against the finals, and
//! [`Trace::fingerprint`] folds them into one pinned number.
//!
//! Like `.dvsf`, the format is plain text, one record per line, designed
//! to diff well and survive hand edits in a corpus:
//!
//! ```text
//! dvst 1
//! name tatas_counter
//! on DS
//! cores 4
//! region 0 sync
//! seg 0 64 0 counter
//! init 0 6
//! final 0 18
//! core 0 5
//! ex 42
//! rmw 0 fai 1 0 0 6
//! fence
//! halt
//! ...
//! ```
//!
//! Addresses and values are hex (no `0x` prefix); counts and ordinals are
//! decimal. Segment and region names come last on their lines so they may
//! contain spaces.

use dvs_core::replay::{RmwKind, TraceOp, MAX_EXEC_CYCLES};
use dvs_engine::FNV_OFFSET;
use dvs_mem::{Addr, MemoryLayout, Region, Segment, WordAddr};
use dvs_vm::isa::Cond;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Format version emitted and accepted by this build.
pub const DVST_VERSION: u32 = 1;

/// The fingerprint's multiplier. It is not the FNV prime
/// (`0x100_0000_01b3`, [`dvs_engine::fnv1a`]'s) but one hex digit longer;
/// every committed fingerprint was computed with it, so it stays.
const FINGERPRINT_PRIME: u64 = 0x1000_0000_01b3;

fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FINGERPRINT_PRIME);
    }
    h
}

/// A sealed, replayable trace: layout, preloaded image, per-core op
/// streams, and the recorded run's pinned final image.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Short identifier (no newlines).
    pub name: String,
    /// Protocol label the trace was recorded on (informational only — a
    /// trace replays on any protocol).
    pub recorded_on: String,
    /// The memory layout the workload was built against (regions drive
    /// DeNovo self-invalidation during replay).
    pub layout: Arc<MemoryLayout>,
    /// Words preloaded before the run, in workload order.
    pub init: Vec<(Addr, u64)>,
    /// `(word, value)` for every word the recorded run touched, sorted by
    /// address — the pinned stable state replay must reproduce.
    pub finals: Vec<(WordAddr, u64)>,
    /// One ordered op stream per core, exactly as long as its ops.
    pub ops: Vec<Arc<[TraceOp]>>,
}

impl Trace {
    /// Number of cores the trace drives.
    pub fn cores(&self) -> usize {
        self.ops.len()
    }

    /// Total recorded ops across all cores.
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(|s| s.len()).sum()
    }

    /// Bytes the op streams hold in memory: every stream is exactly as
    /// long as its ops, so this is ops × `size_of::<TraceOp>()`.
    pub fn op_bytes(&self) -> usize {
        self.total_ops() * std::mem::size_of::<TraceOp>()
    }

    /// The pinned stable-state fingerprint: an FNV-1a-style hash (see
    /// [`FINGERPRINT_PRIME`]) over the sorted final image. Protocol- and
    /// schedule-independent by construction.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for &(w, v) in &self.finals {
            h = fnv1a_u64(h, w.base().raw());
            h = fnv1a_u64(h, v);
        }
        h
    }

    /// Renders the trace as `.dvst` text. [`Trace::parse`] inverts it.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "dvst {DVST_VERSION}");
        let _ = writeln!(s, "name {}", self.name);
        let _ = writeln!(s, "on {}", self.recorded_on);
        let _ = writeln!(s, "cores {}", self.ops.len());
        for r in 0..self.layout.regions() {
            let name = self.layout.region_name(Region(r as u16)).unwrap_or("?");
            let _ = writeln!(s, "region {r} {name}");
        }
        for seg in self.layout.segments() {
            let _ = writeln!(
                s,
                "seg {:x} {} {} {}",
                seg.base.raw(),
                seg.bytes,
                seg.region.0,
                seg.name
            );
        }
        for &(a, v) in &self.init {
            let _ = writeln!(s, "init {:x} {v:x}", a.raw());
        }
        for &(w, v) in &self.finals {
            let _ = writeln!(s, "final {:x} {v:x}", w.base().raw());
        }
        for (i, ops) in self.ops.iter().enumerate() {
            let _ = writeln!(s, "core {i} {}", ops.len());
            for op in ops.iter() {
                render_op(&mut s, op);
            }
        }
        s
    }

    /// Parses `.dvst` text produced by [`Trace::render`] (or hand-written
    /// in the same shape).
    ///
    /// # Errors
    ///
    /// A message naming the first offending line: a malformed record, an
    /// `ex` above [`MAX_EXEC_CYCLES`], or an `inv` of a region the layout
    /// does not declare.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or("empty trace")?;
        let version: u32 = first
            .strip_prefix("dvst ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("line 1: expected `dvst <version>`, got `{first}`"))?;
        if version != DVST_VERSION {
            return Err(format!("unsupported dvst version {version}"));
        }
        let mut name = String::new();
        let mut recorded_on = String::new();
        let mut cores: Option<(usize, usize)> = None; // (count, line)
        let mut region_names: Vec<String> = Vec::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut init = Vec::new();
        let mut finals = Vec::new();
        let mut ops: Vec<Vec<TraceOp>> = Vec::new();
        let mut blocks: Vec<Option<usize>> = Vec::new(); // core -> its block's line
        let mut current: Option<(usize, usize)> = None; // (core, remaining)
        let mut inv_lines: BTreeMap<u16, usize> = BTreeMap::new(); // region -> first `inv` line
        for (ln, line) in lines {
            let ln = ln + 1; // 1-based
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let err = |m: String| format!("line {ln}: {m}");
            if let Some((core, left)) = &mut current {
                if *left > 0 {
                    let op = parse_op(line).map_err(&err)?;
                    if let TraceOp::SelfInv(r) = op {
                        inv_lines.entry(r.0).or_insert(ln);
                    }
                    ops[*core].push(op);
                    *left -= 1;
                    continue;
                }
                current = None;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "name" => name = rest.to_owned(),
                "on" => recorded_on = rest.to_owned(),
                "cores" => {
                    if let Some((_, first)) = cores {
                        return Err(err(format!(
                            "second `cores` record (first on line {first})"
                        )));
                    }
                    let n: usize = rest
                        .parse()
                        .map_err(|_| err(format!("bad core count `{rest}`")))?;
                    cores = Some((n, ln));
                    ops = vec![Vec::new(); n];
                    blocks = vec![None; n];
                }
                "region" => {
                    let (idx, rname) = rest
                        .split_once(' ')
                        .ok_or_else(|| err("expected `region <idx> <name>`".into()))?;
                    let idx: usize = idx
                        .parse()
                        .map_err(|_| err(format!("bad region index `{idx}`")))?;
                    if idx != region_names.len() {
                        return Err(err(format!(
                            "region {idx} out of order (expected {})",
                            region_names.len()
                        )));
                    }
                    region_names.push(rname.to_owned());
                }
                "seg" => {
                    let mut it = rest.splitn(4, ' ');
                    let base = parse_hex(it.next().unwrap_or("")).map_err(&err)?;
                    let bytes: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("bad segment size".into()))?;
                    let region: u16 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("bad segment region".into()))?;
                    let sname = it
                        .next()
                        .ok_or_else(|| err("missing segment name".into()))?;
                    segments.push(Segment {
                        name: sname.to_owned(),
                        base: Addr::new(base),
                        bytes,
                        region: Region(region),
                    });
                }
                "init" => {
                    let (a, v) = parse_pair_hex(rest).map_err(&err)?;
                    init.push((Addr::new(a), v));
                }
                "final" => {
                    let (a, v) = parse_pair_hex(rest).map_err(&err)?;
                    finals.push((Addr::new(a).word(), v));
                }
                "core" => {
                    let (idx, n) = rest
                        .split_once(' ')
                        .ok_or_else(|| err("expected `core <idx> <nops>`".into()))?;
                    let idx: usize = idx
                        .parse()
                        .map_err(|_| err(format!("bad core index `{idx}`")))?;
                    let n: usize = n.parse().map_err(|_| err(format!("bad op count `{n}`")))?;
                    if idx >= ops.len() {
                        return Err(err(format!("core {idx} beyond declared count")));
                    }
                    if let Some(first) = blocks[idx].replace(ln) {
                        return Err(err(format!(
                            "second block for core {idx} (first on line {first})"
                        )));
                    }
                    current = Some((idx, n));
                }
                other => return Err(err(format!("unknown record `{other}`"))),
            }
        }
        if let Some((core, left)) = current {
            if left > 0 {
                return Err(format!("core {core}: {left} ops missing at end of file"));
            }
        }
        let (_, cores_ln) = cores.ok_or("missing `cores` record")?;
        if let Some(core) = blocks.iter().position(Option::is_none) {
            return Err(format!(
                "line {cores_ln}: core {core} is declared but has no `core` block"
            ));
        }
        let undeclared = inv_lines
            .into_iter()
            .filter(|&(r, _)| usize::from(r) >= region_names.len())
            .min_by_key(|&(_, ln)| ln);
        if let Some((r, ln)) = undeclared {
            return Err(format!("line {ln}: `inv {r}` names undeclared region {r}"));
        }
        Ok(Trace {
            name,
            recorded_on,
            layout: Arc::new(MemoryLayout::from_parts(segments, region_names)?),
            init,
            finals,
            ops: ops.into_iter().map(Arc::from).collect(),
        })
    }
}

fn cond_token(c: Cond) -> &'static str {
    match c {
        Cond::Eq => "eq",
        Cond::Ne => "ne",
        Cond::Lt => "lt",
        Cond::Ge => "ge",
    }
}

fn parse_cond(s: &str) -> Result<Cond, String> {
    match s {
        "eq" => Ok(Cond::Eq),
        "ne" => Ok(Cond::Ne),
        "lt" => Ok(Cond::Lt),
        "ge" => Ok(Cond::Ge),
        other => Err(format!("unknown spin condition `{other}`")),
    }
}

fn render_op(s: &mut String, op: &TraceOp) {
    let _ = match *op {
        TraceOp::Exec { cycles } => writeln!(s, "ex {cycles}"),
        TraceOp::Load { addr } => writeln!(s, "ld {:x}", addr.raw()),
        TraceOp::Store { addr, value } => writeln!(s, "st {:x} {value:x}", addr.raw()),
        TraceOp::SyncLoad { addr, dep, .. } => {
            writeln!(s, "lds {:x} {dep} {}", addr.raw(), hex_opt(op.result()))
        }
        TraceOp::Spin {
            addr,
            cond,
            rhs,
            dep,
            ..
        } => writeln!(
            s,
            "sp {:x} {} {rhs:x} {dep} {}",
            addr.raw(),
            cond_token(cond),
            hex_opt(op.result())
        ),
        TraceOp::SyncStore {
            addr,
            value,
            dep,
            rwait,
        } => writeln!(s, "sts {:x} {value:x} {dep} {rwait}", addr.raw()),
        TraceOp::Rmw {
            addr,
            kind,
            a,
            b,
            dep,
            rwait,
            ..
        } => {
            let body = match kind {
                RmwKind::Cas => format!("cas {a:x} {b:x}"),
                RmwKind::Fai => format!("fai {a:x}"),
                RmwKind::Swap => format!("swap {a:x}"),
                RmwKind::Tas => "tas".to_owned(),
            };
            let result = hex_opt(op.result());
            writeln!(s, "rmw {:x} {body} {dep} {rwait} {result}", addr.raw())
        }
        TraceOp::Fence => writeln!(s, "fence"),
        TraceOp::SelfInv(r) => writeln!(s, "inv {}", r.0),
        TraceOp::Halt => writeln!(s, "halt"),
    };
}

fn hex_opt(v: Option<u64>) -> String {
    match v {
        Some(v) => format!("{v:x}"),
        None => "-".to_owned(),
    }
}

fn parse_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|_| format!("bad hex value `{s}`"))
}

fn parse_hex_opt(s: &str) -> Result<Option<u64>, String> {
    if s == "-" {
        Ok(None)
    } else {
        parse_hex(s).map(Some)
    }
}

fn parse_pair_hex(rest: &str) -> Result<(u64, u64), String> {
    let (a, v) = rest
        .split_once(' ')
        .ok_or_else(|| format!("expected `<addr> <value>`, got `{rest}`"))?;
    Ok((parse_hex(a)?, parse_hex(v)?))
}

fn parse_op(line: &str) -> Result<TraceOp, String> {
    let mut it = line.split(' ');
    let key = it.next().unwrap_or("");
    let mut next = |what: &str| {
        it.next()
            .ok_or_else(|| format!("`{key}`: missing {what}"))
            .map(|s| s.to_owned())
    };
    let mut addr = || parse_hex(&next("address")?).map(Addr::new);
    let op = match key {
        "ex" => {
            let cycles: u64 = next("cycle count")?
                .parse()
                .map_err(|_| "bad cycle count".to_owned())?;
            if cycles > MAX_EXEC_CYCLES {
                return Err(format!(
                    "`ex {cycles}` exceeds the {MAX_EXEC_CYCLES}-cycle bound"
                ));
            }
            TraceOp::Exec { cycles }
        }
        "fence" => TraceOp::Fence,
        "inv" => TraceOp::SelfInv(Region(
            next("region")?
                .parse()
                .map_err(|_| "bad region index".to_owned())?,
        )),
        "halt" => TraceOp::Halt,
        "ld" => TraceOp::Load { addr: addr()? },
        "st" => TraceOp::Store {
            addr: addr()?,
            value: parse_hex(&next("value")?)?,
        },
        "lds" => {
            let addr = addr()?;
            let dep = next("dep")?.parse().map_err(|_| "bad dep".to_owned())?;
            let result = parse_hex_opt(&next("result")?)?;
            TraceOp::SyncLoad {
                addr,
                dep,
                result: result.unwrap_or(0),
                has_result: result.is_some(),
            }
        }
        "sp" => {
            let addr = addr()?;
            let cond = parse_cond(&next("condition")?)?;
            let rhs = parse_hex(&next("rhs")?)?;
            let dep = next("dep")?.parse().map_err(|_| "bad dep".to_owned())?;
            let result = parse_hex_opt(&next("result")?)?;
            TraceOp::Spin {
                addr,
                cond,
                rhs,
                dep,
                result: result.unwrap_or(0),
                has_result: result.is_some(),
            }
        }
        "sts" => TraceOp::SyncStore {
            addr: addr()?,
            value: parse_hex(&next("value")?)?,
            dep: next("dep")?.parse().map_err(|_| "bad dep".to_owned())?,
            rwait: next("rwait")?.parse().map_err(|_| "bad rwait".to_owned())?,
        },
        "rmw" => {
            let addr = addr()?;
            let (kind, a, b) = match next("rmw kind")?.as_str() {
                "cas" => (
                    RmwKind::Cas,
                    parse_hex(&next("expected")?)?,
                    parse_hex(&next("new")?)?,
                ),
                "fai" => (RmwKind::Fai, parse_hex(&next("delta")?)?, 0),
                "swap" => (RmwKind::Swap, parse_hex(&next("new")?)?, 0),
                "tas" => (RmwKind::Tas, 0, 0),
                other => return Err(format!("unknown rmw kind `{other}`")),
            };
            let dep = next("dep")?.parse().map_err(|_| "bad dep".to_owned())?;
            let rwait = next("rwait")?.parse().map_err(|_| "bad rwait".to_owned())?;
            let result = parse_hex_opt(&next("result")?)?;
            TraceOp::Rmw {
                addr,
                kind,
                a,
                b,
                dep,
                rwait,
                result: result.unwrap_or(0),
                has_result: result.is_some(),
            }
        }
        other => return Err(format!("unknown op `{other}`")),
    };
    if it.next().is_some() {
        return Err(format!("`{key}`: trailing fields"));
    }
    Ok(op)
}
