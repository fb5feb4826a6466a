//! System configurations (the paper's Table 1).

use crate::chaos::FaultPlan;
use dvs_engine::Cycle;
use dvs_mem::CacheGeometry;
use dvs_noc::NocParams;
use dvs_stats::report::ParamTable;

/// How DeNovo decides what data to self-invalidate at an acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataInvalidation {
    /// The paper's default: compiler-provided static regions — a `SelfInv`
    /// instruction invalidates every Valid word of its region (§3).
    #[default]
    StaticRegions,
    /// The paper's future-work integration of DeNovoND-style dynamic
    /// signatures \[35\]: each release publishes the writer's
    /// critical-section write set to the lock; an acquire invalidates only
    /// the words accumulated in the lock's signature. Signatures accumulate
    /// monotonically (a safe over-approximation of DeNovoND's scheme; see
    /// the module docs of `dvs_core::system`).
    Signatures,
}

/// A seeded protocol bug, injected at a single transition of a controller.
///
/// Mutations exist to prove the model checker and the runtime invariant
/// checkers actually discriminate: each one breaks exactly one rule the
/// protocol depends on, and `dvs-check` must find an interleaving that
/// exposes it. They are plumbed through [`SystemConfig::mutation`] (default
/// `None`) rather than `#[cfg(test)]` so integration tests and the checker
/// crate can enable them on an otherwise-stock system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolMutation {
    /// DeNovo registry: serve a registration transfer from the previous
    /// registrant but forget to re-point the registry word at the new one.
    DnvSkipRepoint,
    /// DeNovo registry: re-point the registry word but never send the
    /// `Xfer` to the previous registrant (the transfer is lost).
    DnvDropXfer,
    /// MESI L1: acknowledge an `Inv` without actually dropping the S copy.
    MesiSkipInvalidate,
    /// MESI L1: drop an incoming `InvAck` (the acks balance never reaches
    /// zero, or ownership completes early on the next ack).
    MesiDropAck,
    /// GCS bank: a value-changing sync operation clears the waiter set but
    /// never sends the `SyncNotify` wakeups (lost wakeup — spinning cores
    /// sleep forever).
    GcsDropNotify,
    /// GCS bank: execute a sync RMW's read half but forget to store the new
    /// value back (lost update — the returned old value is correct but the
    /// variable never changes).
    GcsSkipUpdate,
}

impl ProtocolMutation {
    /// Every seeded mutation, in token-table order.
    pub const ALL: [ProtocolMutation; 6] = [
        ProtocolMutation::DnvSkipRepoint,
        ProtocolMutation::DnvDropXfer,
        ProtocolMutation::MesiSkipInvalidate,
        ProtocolMutation::MesiDropAck,
        ProtocolMutation::GcsDropNotify,
        ProtocolMutation::GcsSkipUpdate,
    ];

    /// The mutation's token (`"dnv-skip-repoint"`, ...) — the one spelling
    /// shared by CLI flags, campaign spec tokens and serve cell tokens.
    pub fn token(self) -> &'static str {
        match self {
            ProtocolMutation::DnvSkipRepoint => "dnv-skip-repoint",
            ProtocolMutation::DnvDropXfer => "dnv-drop-xfer",
            ProtocolMutation::MesiSkipInvalidate => "mesi-skip-invalidate",
            ProtocolMutation::MesiDropAck => "mesi-drop-ack",
            ProtocolMutation::GcsDropNotify => "gcs-drop-notify",
            ProtocolMutation::GcsSkipUpdate => "gcs-skip-update",
        }
    }

    /// Parses a token — the inverse of [`ProtocolMutation::token`].
    ///
    /// # Errors
    ///
    /// Lists the known tokens when `tok` is not one of them.
    pub fn from_token(tok: &str) -> Result<ProtocolMutation, String> {
        ProtocolMutation::ALL
            .into_iter()
            .find(|m| m.token() == tok)
            .ok_or_else(|| {
                let known = ProtocolMutation::ALL.map(ProtocolMutation::token);
                format!("unknown mutation {tok:?} (want {})", known.join(", "))
            })
    }
}

/// Which coherence protocol the system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Directory MESI with writer-initiated invalidations (baseline).
    Mesi,
    /// DeNovo with synchronization-read registration, no backoff (§4.1).
    DeNovoSync0,
    /// DeNovoSync0 plus the adaptive hardware backoff (§4.2).
    DeNovoSync,
    /// Generalized coherence (GCS/Soul-style): a DS0-like ownership path for
    /// data, plus dynamic classification of contended synchronization words
    /// into a dedicated directory-mediated update/notify path — spinning
    /// cores are woken by a targeted `SyncNotify` instead of invalidation
    /// storms or self-invalidation polling.
    Gcs,
}

impl Protocol {
    /// The bar label ("M", "DS0", "DS", "GCS").
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Mesi => "M",
            Protocol::DeNovoSync0 => "DS0",
            Protocol::DeNovoSync => "DS",
            Protocol::Gcs => "GCS",
        }
    }

    /// Parses a bar label (`"M"`, `"DS0"`, `"DS"`, `"GCS"`) — the inverse of
    /// [`Protocol::label`], and the one protocol parser every front end
    /// (CLI flags, campaign spec tokens, job files) shares.
    ///
    /// # Errors
    ///
    /// Lists the known labels when `label` is not one of them.
    pub fn from_label(label: &str) -> Result<Protocol, String> {
        Protocol::EXTENDED
            .into_iter()
            .find(|p| p.label() == label)
            .ok_or_else(|| format!("unknown protocol {label:?} (want M, DS0, DS, or GCS)"))
    }

    /// Whether this is one of the paper's DeNovo variants (GCS shares their
    /// controllers but adds its own sync path, so it is not counted here).
    pub fn is_denovo(self) -> bool {
        matches!(self, Protocol::DeNovoSync0 | Protocol::DeNovoSync)
    }

    /// The paper's three protocols, in the paper's bar order. Figure grids
    /// keep this set so committed figure shapes and digests are stable.
    pub const ALL: [Protocol; 3] = [Protocol::Mesi, Protocol::DeNovoSync0, Protocol::DeNovoSync];

    /// Every backend, paper bar order first, then GCS. The differential
    /// stack (litmus, check, fuzz) runs over this set.
    pub const EXTENDED: [Protocol; 4] = [
        Protocol::Mesi,
        Protocol::DeNovoSync0,
        Protocol::DeNovoSync,
        Protocol::Gcs,
    ];
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Hardware-backoff parameters (paper §4.2 and §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackoffConfig {
    /// Backoff-counter width in bits (counter wraps on overflow).
    pub counter_bits: u32,
    /// Default increment value in cycles.
    pub default_increment: u64,
    /// The increment counter grows by `default_increment` every
    /// `increment_period`-th incoming remote sync-read registration request
    /// (the paper uses the core count).
    pub increment_period: u64,
}

impl BackoffConfig {
    /// The paper's 16-core parameters: 9-bit counter, 1-cycle increment.
    pub fn cores16() -> Self {
        BackoffConfig {
            counter_bits: 9,
            default_increment: 1,
            increment_period: 16,
        }
    }

    /// The paper's 64-core parameters: 12-bit counter, 64-cycle increment.
    pub fn cores64() -> Self {
        BackoffConfig {
            counter_bits: 12,
            default_increment: 64,
            increment_period: 64,
        }
    }

    /// Parameters scaled for an arbitrary core count (paper values at 16/64,
    /// interpolated elsewhere; used by `SystemConfig::small` test systems).
    pub fn for_cores(cores: usize) -> Self {
        if cores >= 64 {
            Self::cores64()
        } else if cores >= 16 {
            Self::cores16()
        } else {
            BackoffConfig {
                counter_bits: 8,
                default_increment: 1,
                increment_period: cores.max(2) as u64,
            }
        }
    }

    /// Maximum counter value before wrap-around.
    pub fn counter_max(&self) -> u64 {
        (1u64 << self.counter_bits) - 1
    }
}

/// Fixed access latencies of the memory hierarchy components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 hit latency in cycles (Table 1: 1 cycle).
    pub l1_hit: Cycle,
    /// L2 bank access latency (tag + data array).
    pub l2_access: Cycle,
    /// A remote L1 servicing a forwarded request.
    pub remote_l1: Cycle,
    /// DRAM access at a memory controller.
    pub dram: Cycle,
    /// Gap before a spinning core re-examines a watched word after it
    /// changes state (models the few loop instructions around the spin).
    pub spin_recheck: Cycle,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            l1_hit: 1,
            l2_access: 26,
            remote_l1: 8,
            dram: 150,
            spin_recheck: 2,
        }
    }
}

/// A mesh topology shape: `rows × cols` tiles. The paper's systems are
/// square; non-square shapes (2×8, 16×8, …) widen the hardware space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshShape {
    /// Mesh rows (must be positive).
    pub rows: u32,
    /// Mesh columns (must be positive).
    pub cols: u32,
}

impl MeshShape {
    /// Creates a shape, validating both dimensions.
    ///
    /// # Errors
    ///
    /// Rejects a zero dimension with an explanation.
    pub fn new(rows: u32, cols: u32) -> Result<Self, String> {
        if rows == 0 || cols == 0 {
            return Err(format!("mesh {rows}x{cols} has a zero dimension"));
        }
        Ok(MeshShape { rows, cols })
    }

    /// Tile count.
    pub fn tiles(self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// The canonical `<rows>x<cols>` token.
    pub fn token(self) -> String {
        format!("{}x{}", self.rows, self.cols)
    }

    /// Parses a `<rows>x<cols>` token (the inverse of [`MeshShape::token`]).
    ///
    /// # Errors
    ///
    /// Explains a malformed token or a zero dimension.
    pub fn from_token(tok: &str) -> Result<Self, String> {
        let (r, c) = tok
            .split_once('x')
            .ok_or_else(|| format!("mesh {tok:?} is not <rows>x<cols>"))?;
        let rows = r
            .parse()
            .map_err(|_| format!("mesh rows {r:?} is not a number"))?;
        let cols = c
            .parse()
            .map_err(|_| format!("mesh cols {c:?} is not a number"))?;
        MeshShape::new(rows, cols)
    }
}

/// Deterministic heterogeneous link latencies: each mesh link gets a fixed
/// extra per-hop delay in `0..=max_extra`, chosen by `seed`. Models chips
/// whose links are not all equally fast (longer wires, slower voltage
/// domains) while keeping runs bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeteroLinks {
    /// Seed the per-link delays derive from.
    pub seed: u64,
    /// Largest extra per-hop delay a link may carry, in cycles.
    pub max_extra: Cycle,
}

/// A complete simulated-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores (= tiles = L2 banks).
    pub cores: usize,
    /// Mesh shape; `None` means the square mesh for `cores` tiles. When set,
    /// `rows × cols` must equal `cores`.
    pub mesh: Option<MeshShape>,
    /// Heterogeneous per-link latencies; `None` keeps every link uniform.
    pub hetero_links: Option<HeteroLinks>,
    /// The coherence protocol.
    pub protocol: Protocol,
    /// Private L1 geometry (Table 1: 32 KB).
    pub l1: CacheGeometry,
    /// Network parameters.
    pub noc: NocParams,
    /// Component latencies.
    pub latency: LatencyConfig,
    /// Hardware backoff parameters (used by DeNovoSync only).
    pub backoff: BackoffConfig,
    /// Data self-invalidation mechanism (DeNovo variants only).
    pub data_inv: DataInvalidation,
    /// Seed for workload randomization.
    pub seed: u64,
    /// Safety valve: abort the simulation after this many cycles.
    pub max_cycles: Cycle,
    /// Run the runtime coherence-invariant checkers at message-delivery
    /// boundaries. Off by default: checking costs time, and the checks are
    /// for protocol debugging and chaos testing, not production runs.
    pub check_invariants: bool,
    /// Deterministic fault injection (delivery delay + legal reordering).
    /// `None` leaves message timing exactly as the network model produces
    /// it.
    pub fault_plan: Option<FaultPlan>,
    /// A seeded protocol bug for negative testing (`None` = stock protocol).
    pub mutation: Option<ProtocolMutation>,
}

impl SystemConfig {
    fn noc_params() -> NocParams {
        NocParams {
            hop_cycles: 2,
            endpoint_cycles: 1,
        }
    }

    /// The paper's 16-core system (Table 1): 4×4 mesh, 32 KB L1s, 4 MB L2 in
    /// 16 banks.
    pub fn cores16(protocol: Protocol) -> Self {
        SystemConfig {
            cores: 16,
            protocol,
            mesh: None,
            hetero_links: None,
            l1: CacheGeometry::new(32 * 1024, 4),
            noc: Self::noc_params(),
            latency: LatencyConfig::default(),
            backoff: BackoffConfig::cores16(),
            data_inv: DataInvalidation::StaticRegions,
            seed: 0xDE40,
            max_cycles: 2_000_000_000,
            check_invariants: false,
            fault_plan: None,
            mutation: None,
        }
    }

    /// The paper's 64-core system (Table 1): 8×8 mesh, 32 KB L1s, 8 MB L2 in
    /// 64 banks.
    pub fn cores64(protocol: Protocol) -> Self {
        SystemConfig {
            cores: 64,
            protocol,
            mesh: None,
            hetero_links: None,
            l1: CacheGeometry::new(32 * 1024, 4),
            noc: Self::noc_params(),
            latency: LatencyConfig::default(),
            backoff: BackoffConfig::cores64(),
            data_inv: DataInvalidation::StaticRegions,
            seed: 0xDE40,
            max_cycles: 2_000_000_000,
            check_invariants: false,
            fault_plan: None,
            mutation: None,
        }
    }

    /// A small square system for tests and examples (`cores` must be a
    /// perfect square: 1, 4, 9, 16, ...).
    pub fn small(cores: usize, protocol: Protocol) -> Self {
        SystemConfig {
            cores,
            protocol,
            mesh: None,
            hetero_links: None,
            l1: CacheGeometry::new(32 * 1024, 4),
            noc: Self::noc_params(),
            latency: LatencyConfig::default(),
            backoff: BackoffConfig::for_cores(cores),
            data_inv: DataInvalidation::StaticRegions,
            seed: 0xDE40,
            max_cycles: 500_000_000,
            check_invariants: false,
            fault_plan: None,
            mutation: None,
        }
    }

    /// A system on an explicit (possibly non-square, possibly large)
    /// `rows × cols` mesh: the [`SystemConfig::small`] parameterization
    /// with the core count taken from the shape.
    pub fn meshed(shape: MeshShape, protocol: Protocol) -> Self {
        let mut cfg = Self::small(shape.tiles(), protocol);
        cfg.mesh = Some(shape);
        cfg
    }

    /// The paper's configuration for a given core count (16 or 64).
    ///
    /// # Panics
    ///
    /// Panics on any other core count; use [`SystemConfig::small`] for test
    /// systems.
    pub fn paper(cores: usize, protocol: Protocol) -> Self {
        match cores {
            16 => Self::cores16(protocol),
            64 => Self::cores64(protocol),
            other => panic!("the paper evaluates 16 and 64 cores, not {other}"),
        }
    }

    /// L2 capacity per Table 1 (4 MB at 16 cores, 8 MB at 64; informational —
    /// the simulated L2/registry keeps tags for every touched line, see
    /// DESIGN.md).
    pub fn l2_bytes(&self) -> u64 {
        if self.cores >= 64 {
            8 << 20
        } else {
            4 << 20
        }
    }

    /// Renders this configuration as the paper's Table 1.
    pub fn table1(&self) -> ParamTable {
        let mut t = ParamTable::new("Table 1: Simulated system parameters");
        t.row("# of cores", self.cores)
            .row("Core frequency", "2 GHz (1 cycle = 0.5 ns)")
            .row(
                "Core model",
                "in-order, 1 CPI, blocking loads, non-blocking stores",
            )
            .row(
                "L1 data cache (private)",
                format!(
                    "{}KB, {}-way, 64-byte lines",
                    self.l1.size_bytes() / 1024,
                    self.l1.assoc()
                ),
            )
            .row(
                "L2 (shared, NUCA)",
                format!(
                    "{}MB, {} banks, 64-byte lines",
                    self.l2_bytes() >> 20,
                    self.cores
                ),
            )
            .row("Memory", "4 on-chip controllers (mesh corners)")
            .row("L1 hit latency", format!("{} cycle", self.latency.l1_hit))
            .row(
                "L2 bank access",
                format!("{} cycles + network", self.latency.l2_access),
            )
            .row(
                "Remote L1 access",
                format!("{} cycles + network", self.latency.remote_l1),
            )
            .row(
                "Memory latency",
                format!("{} cycles + network", self.latency.dram),
            )
            .row(
                "Network",
                format!("2D mesh, 16-bit flits, {} cycles/hop", self.noc.hop_cycles),
            );
        if self.protocol == Protocol::DeNovoSync {
            t.row(
                "HW backoff",
                format!(
                    "{}-bit counter, {}-cycle default increment",
                    self.backoff.counter_bits, self.backoff.default_increment
                ),
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_noc::{flits_for, Mesh, Network};

    #[test]
    fn paper_presets_match_table1() {
        let c16 = SystemConfig::cores16(Protocol::Mesi);
        assert_eq!(c16.cores, 16);
        assert_eq!(c16.l1.size_bytes(), 32 * 1024);
        assert_eq!(c16.l2_bytes(), 4 << 20);
        assert_eq!(c16.backoff.counter_bits, 9);
        let c64 = SystemConfig::cores64(Protocol::DeNovoSync);
        assert_eq!(c64.cores, 64);
        assert_eq!(c64.l2_bytes(), 8 << 20);
        assert_eq!(c64.backoff.counter_bits, 12);
        assert_eq!(c64.backoff.default_increment, 64);
    }

    #[test]
    #[should_panic(expected = "16 and 64")]
    fn paper_rejects_other_core_counts() {
        SystemConfig::paper(32, Protocol::Mesi);
    }

    #[test]
    fn protocol_lists_and_labels() {
        assert_eq!(Protocol::ALL.len(), 3, "paper bar order is fixed");
        assert_eq!(Protocol::EXTENDED[..3], Protocol::ALL);
        assert_eq!(Protocol::Gcs.label(), "GCS");
        assert!(!Protocol::Gcs.is_denovo());
        assert!(Protocol::DeNovoSync0.is_denovo());
        assert!(!Protocol::Mesi.is_denovo());
    }

    #[test]
    fn mutation_tokens_round_trip() {
        for m in ProtocolMutation::ALL {
            assert_eq!(ProtocolMutation::from_token(m.token()), Ok(m));
        }
        let err = ProtocolMutation::from_token("nope").unwrap_err();
        assert!(err.contains("gcs-skip-update"), "{err}");
    }

    #[test]
    fn mesh_shape_tokens_round_trip_and_reject_zeros() {
        for shape in [
            MeshShape { rows: 2, cols: 8 },
            MeshShape { rows: 16, cols: 8 },
            MeshShape { rows: 16, cols: 16 },
        ] {
            assert_eq!(MeshShape::from_token(&shape.token()), Ok(shape));
        }
        assert!(MeshShape::from_token("0x8").unwrap_err().contains("zero"));
        assert!(MeshShape::from_token("4x0").unwrap_err().contains("zero"));
        assert!(MeshShape::from_token("4")
            .unwrap_err()
            .contains("<rows>x<cols>"));
        assert!(MeshShape::from_token("axb").unwrap_err().contains("rows"));
        assert_eq!(MeshShape { rows: 16, cols: 8 }.tiles(), 128);
    }

    #[test]
    fn meshed_config_carries_the_shape() {
        let shape = MeshShape { rows: 2, cols: 8 };
        let cfg = SystemConfig::meshed(shape, Protocol::Gcs);
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.mesh, Some(shape));
    }

    #[test]
    fn backoff_counter_max() {
        assert_eq!(BackoffConfig::cores16().counter_max(), 511);
        assert_eq!(BackoffConfig::cores64().counter_max(), 4095);
    }

    #[test]
    fn table1_renders_key_rows() {
        let t = SystemConfig::cores16(Protocol::DeNovoSync)
            .table1()
            .render();
        assert!(t.contains("2 GHz"));
        assert!(t.contains("32KB"));
        assert!(t.contains("4MB"));
        assert!(t.contains("HW backoff"));
    }

    /// Table 1 latency calibration: round-trip L2 access latencies must land
    /// in the ranges the paper reports (28–68 cycles at 16 cores for a
    /// control-sized response; memory 197–277).
    #[test]
    fn latency_ranges_roughly_match_table1() {
        let cfg = SystemConfig::cores16(Protocol::Mesi);
        let mesh = Mesh::square(16);
        let net = Network::new(mesh, cfg.noc);
        let word_resp = flits_for(8, 8);
        let req = flits_for(8, 0);
        let l2 = |hops: usize| {
            net.ideal_latency(hops, req)
                + cfg.latency.l2_access
                + net.ideal_latency(hops, word_resp)
        };
        let min = l2(0);
        let max = l2(6);
        assert!(
            (24..=34).contains(&min),
            "same-tile L2 hit {min} should be near Table 1's 28"
        );
        assert!(
            (55..=80).contains(&max),
            "far-bank L2 hit {max} should be near Table 1's 68"
        );
        // Memory: far bank + controller trip + DRAM.
        let mem =
            max + net.ideal_latency(3, req) + cfg.latency.dram + net.ideal_latency(3, word_resp);
        assert!(
            (195..=290).contains(&mem),
            "memory latency {mem} should be within Table 1's 197–277"
        );
    }
}
