//! Protocol messages, their wire sizes, and traffic classes.
//!
//! Every message knows its size in bytes (an 8-byte header carrying the
//! type, address, and routing information, plus any data payload) and its
//! [`TrafficClass`] for the paper's traffic breakdown. DeNovo responses
//! carry only valid words ("load responses do not contain invalid parts of
//! the cache line"), which is one of DeNovo's structural traffic advantages.

use dvs_mem::{LineAddr, RmwOp, WordAddr, WORDS_PER_LINE, WORD_BYTES};
use dvs_noc::NodeId;
use dvs_stats::TrafficClass;

/// A core index (also its tile and L1 index).
pub type CoreId = usize;
/// An L2 bank index (one bank per tile).
pub type BankId = usize;

/// Bytes of header (message type + address + source) on every message.
pub const HEADER_BYTES: u64 = 8;

/// A full line of data words.
pub type LineData = [u64; WORDS_PER_LINE];

/// Where a message is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// A private L1 cache (by core id).
    L1(CoreId),
    /// A shared L2 bank / directory / registry (by bank id).
    Bank(BankId),
    /// A memory controller (by mesh node).
    Mem(NodeId),
}

/// The access class behind a DeNovo transfer; determines both how a previous
/// registrant downgrades and the traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XferClass {
    /// Non-ownership data read.
    DataRead,
    /// Data-write registration.
    Write,
    /// Synchronization-read registration (single-reader rule, §4.1).
    SyncRead,
    /// Synchronization write or RMW registration.
    SyncWrite,
}

impl XferClass {
    /// The traffic class for messages of this transfer class.
    pub fn traffic(self) -> TrafficClass {
        match self {
            XferClass::DataRead => TrafficClass::Load,
            XferClass::Write => TrafficClass::Store,
            XferClass::SyncRead | XferClass::SyncWrite => TrafficClass::Sync,
        }
    }

    /// Whether this transfer takes ownership (registration).
    pub fn registers(self) -> bool {
        !matches!(self, XferClass::DataRead)
    }
}

/// MESI protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiMsg {
    /// Read request to the directory.
    GetS {
        /// Requested line.
        line: LineAddr,
        /// Requesting core.
        req: CoreId,
    },
    /// Ownership request to the directory.
    GetM {
        /// Requested line.
        line: LineAddr,
        /// Requesting core.
        req: CoreId,
    },
    /// Sharer eviction notice.
    PutS {
        /// Evicted line.
        line: LineAddr,
        /// Evicting core.
        req: CoreId,
    },
    /// Owner eviction with dirty data.
    PutM {
        /// Evicted line.
        line: LineAddr,
        /// Evicting core.
        req: CoreId,
        /// The dirty line.
        data: LineData,
    },
    /// Clean-exclusive eviction notice.
    PutE {
        /// Evicted line.
        line: LineAddr,
        /// Evicting core.
        req: CoreId,
    },
    /// Data response (directory or owner → requestor).
    Data {
        /// The line.
        line: LineAddr,
        /// Line contents.
        data: LineData,
        /// Invalidation acks the requestor must still collect.
        acks: u32,
        /// Grant E instead of S (no other sharers).
        exclusive: bool,
        /// Traffic class of the owning transaction.
        class: TrafficClass,
    },
    /// Directory forwards a GetS to the owner.
    FwdGetS {
        /// The line.
        line: LineAddr,
        /// Original requestor (receives the data directly).
        req: CoreId,
    },
    /// Directory forwards a GetM to the owner.
    FwdGetM {
        /// The line.
        line: LineAddr,
        /// Original requestor (receives the data directly).
        req: CoreId,
    },
    /// Writer-initiated invalidation; ack goes directly to `req`.
    Inv {
        /// The line.
        line: LineAddr,
        /// The new owner awaiting the ack.
        req: CoreId,
    },
    /// Invalidation acknowledgment (sharer → new owner).
    InvAck {
        /// The line.
        line: LineAddr,
        /// The acknowledging core.
        from: CoreId,
    },
    /// Directory acknowledges a Put*.
    PutAck {
        /// The line.
        line: LineAddr,
    },
    /// Owner's downgrade data to the directory on FwdGetS.
    OwnerWb {
        /// The line.
        line: LineAddr,
        /// The dirty line.
        data: LineData,
        /// Former owner.
        from: CoreId,
    },
    /// Requestor tells the blocking directory its transaction completed.
    Unblock {
        /// The line.
        line: LineAddr,
        /// The requestor.
        from: CoreId,
        /// Traffic class of the completed transaction.
        class: TrafficClass,
    },
}

impl MesiMsg {
    /// Total wire size in bytes (header + payload).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            MesiMsg::PutM { .. } | MesiMsg::Data { .. } | MesiMsg::OwnerWb { .. } => {
                HEADER_BYTES + WORDS_PER_LINE as u64 * WORD_BYTES
            }
            _ => HEADER_BYTES,
        }
    }

    /// Traffic class for the paper's breakdown (LD / ST / WB / Inv).
    pub fn class(&self) -> TrafficClass {
        match self {
            MesiMsg::GetS { .. } | MesiMsg::FwdGetS { .. } => TrafficClass::Load,
            MesiMsg::GetM { .. } | MesiMsg::FwdGetM { .. } => TrafficClass::Store,
            MesiMsg::PutS { .. }
            | MesiMsg::PutM { .. }
            | MesiMsg::PutE { .. }
            | MesiMsg::PutAck { .. }
            | MesiMsg::OwnerWb { .. } => TrafficClass::Writeback,
            MesiMsg::Inv { .. } | MesiMsg::InvAck { .. } => TrafficClass::Invalidation,
            MesiMsg::Data { class, .. } | MesiMsg::Unblock { class, .. } => *class,
        }
    }

    /// The line this message concerns.
    pub fn line(&self) -> LineAddr {
        match *self {
            MesiMsg::GetS { line, .. }
            | MesiMsg::GetM { line, .. }
            | MesiMsg::PutS { line, .. }
            | MesiMsg::PutM { line, .. }
            | MesiMsg::PutE { line, .. }
            | MesiMsg::Data { line, .. }
            | MesiMsg::FwdGetS { line, .. }
            | MesiMsg::FwdGetM { line, .. }
            | MesiMsg::Inv { line, .. }
            | MesiMsg::InvAck { line, .. }
            | MesiMsg::PutAck { line }
            | MesiMsg::OwnerWb { line, .. }
            | MesiMsg::Unblock { line, .. } => line,
        }
    }

    /// The message type's name (telemetry / forensics labels).
    pub fn kind_name(&self) -> &'static str {
        match self {
            MesiMsg::GetS { .. } => "GetS",
            MesiMsg::GetM { .. } => "GetM",
            MesiMsg::PutS { .. } => "PutS",
            MesiMsg::PutM { .. } => "PutM",
            MesiMsg::PutE { .. } => "PutE",
            MesiMsg::Data { .. } => "Data",
            MesiMsg::FwdGetS { .. } => "FwdGetS",
            MesiMsg::FwdGetM { .. } => "FwdGetM",
            MesiMsg::Inv { .. } => "Inv",
            MesiMsg::InvAck { .. } => "InvAck",
            MesiMsg::PutAck { .. } => "PutAck",
            MesiMsg::OwnerWb { .. } => "OwnerWb",
            MesiMsg::Unblock { .. } => "Unblock",
        }
    }
}

/// DeNovo protocol messages (word granularity). The variants from
/// `SyncOp` on are GCS's sync path: only GCS's tables send them, for words
/// a home bank classified as synchronization variables, the classification
/// handshake, and spin-wakeup notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnvMsg {
    /// Non-ownership data-read request to the registry.
    ReadReq {
        /// Requested word.
        word: WordAddr,
        /// Requesting core.
        req: CoreId,
    },
    /// Registration request (data write, sync read, sync write/RMW).
    RegReq {
        /// Requested word.
        word: WordAddr,
        /// Requesting core.
        req: CoreId,
        /// Why ownership is wanted.
        class: XferClass,
    },
    /// Data-read response (registry or current registrant → requestor).
    /// `fill` carries the other valid words of the line when the registry
    /// responds (word-mask + values; invalid words are not transferred).
    ReadResp {
        /// The word.
        word: WordAddr,
        /// Its value.
        value: u64,
        /// Valid-sibling-word fill: `(mask, line)`; bit i of `mask` says
        /// `line[i]` is carried.
        fill: Option<(u8, LineData)>,
    },
    /// Registration acknowledgment (registry or previous registrant → new
    /// registrant) carrying the word's current value.
    RegAck {
        /// The word.
        word: WordAddr,
        /// Current value of the word.
        value: u64,
        /// Transfer class (for traffic accounting).
        class: XferClass,
    },
    /// Registry tells the previous registrant to hand the word to
    /// `new_owner` (the paper's forwarded registration).
    Xfer {
        /// The word.
        word: WordAddr,
        /// New registrant.
        new_owner: CoreId,
        /// Access class (sync reads downgrade to Valid under DeNovoSync).
        class: XferClass,
    },
    /// Writeback handshake: request to return a registered word's value.
    WbReq {
        /// The word.
        word: WordAddr,
        /// Its value.
        value: u64,
        /// Evicting core.
        from: CoreId,
    },
    /// Registry accepted the writeback (the core was the registrant).
    WbAck {
        /// The word.
        word: WordAddr,
    },
    /// Registry rejected the writeback (ownership already moved; an `Xfer`
    /// is in flight to the evicting core).
    WbNack {
        /// The word.
        word: WordAddr,
    },
    /// Execute a sync operation at the word's home bank.
    SyncOp {
        /// The classified word.
        word: WordAddr,
        /// Requesting core (receives the `SyncResp`).
        req: CoreId,
        /// What to do to the word.
        op: GcsOpKind,
    },
    /// Result of a `SyncOp` (bank → requestor): the loaded value, the old
    /// value of an RMW, or the stored value echoed back for a store.
    SyncResp {
        /// The word.
        word: WordAddr,
        /// Result value.
        value: u64,
    },
    /// Level-triggered spin registration: if the word's value already
    /// differs from `seen` the bank notifies immediately, otherwise it sets
    /// the requestor's waiter bit (no lost wakeups).
    SyncWatch {
        /// The watched word.
        word: WordAddr,
        /// Watching core.
        req: CoreId,
        /// The value the spinner last observed.
        seen: u64,
    },
    /// Targeted wakeup (bank → waiter) carrying the word's new value.
    SyncNotify {
        /// The word.
        word: WordAddr,
        /// Its new value.
        value: u64,
    },
    /// Bank reclaims a newly classified word from its current registrant.
    Recall {
        /// The word.
        word: WordAddr,
    },
    /// Registrant returns the word (`value` when it still held it; `None`
    /// when ownership had already moved on before the recall arrived).
    RecallAck {
        /// The word.
        word: WordAddr,
        /// Responding core.
        from: CoreId,
        /// The recalled value, if this core was still the registrant.
        value: Option<u64>,
    },
    /// Bank rejects a registration because the word is sync-classified;
    /// the L1 must convert the pending access to the `SyncOp` path.
    Classified {
        /// The word.
        word: WordAddr,
    },
}

impl DnvMsg {
    /// Total wire size in bytes (header + payload; only valid words travel).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            DnvMsg::ReadReq { .. }
            | DnvMsg::RegReq { .. }
            | DnvMsg::Xfer { .. }
            | DnvMsg::WbAck { .. }
            | DnvMsg::WbNack { .. }
            | DnvMsg::Recall { .. }
            | DnvMsg::Classified { .. } => HEADER_BYTES,
            DnvMsg::RegAck { .. }
            | DnvMsg::WbReq { .. }
            | DnvMsg::SyncResp { .. }
            | DnvMsg::SyncWatch { .. }
            | DnvMsg::SyncNotify { .. } => HEADER_BYTES + WORD_BYTES,
            DnvMsg::ReadResp { fill, .. } => {
                let extra = fill.map_or(0, |(mask, _)| u64::from(mask.count_ones()));
                HEADER_BYTES + WORD_BYTES * (1 + extra)
            }
            DnvMsg::SyncOp { op, .. } => HEADER_BYTES + WORD_BYTES * op.payload_words(),
            DnvMsg::RecallAck { value, .. } => {
                HEADER_BYTES + WORD_BYTES * u64::from(value.is_some())
            }
        }
    }

    /// Traffic class for the paper's breakdown (LD / ST / WB / SYNCH). The
    /// GCS sync path is synchronization traffic, except that a recall is a
    /// forced writeback.
    pub fn class(&self) -> TrafficClass {
        match self {
            DnvMsg::ReadReq { .. } | DnvMsg::ReadResp { .. } => TrafficClass::Load,
            DnvMsg::RegReq { class, .. }
            | DnvMsg::RegAck { class, .. }
            | DnvMsg::Xfer { class, .. } => class.traffic(),
            DnvMsg::WbReq { .. }
            | DnvMsg::WbAck { .. }
            | DnvMsg::WbNack { .. }
            | DnvMsg::Recall { .. }
            | DnvMsg::RecallAck { .. } => TrafficClass::Writeback,
            DnvMsg::SyncOp { .. }
            | DnvMsg::SyncResp { .. }
            | DnvMsg::SyncWatch { .. }
            | DnvMsg::SyncNotify { .. }
            | DnvMsg::Classified { .. } => TrafficClass::Sync,
        }
    }

    /// The word this message concerns.
    pub fn word(&self) -> WordAddr {
        match *self {
            DnvMsg::ReadReq { word, .. }
            | DnvMsg::RegReq { word, .. }
            | DnvMsg::ReadResp { word, .. }
            | DnvMsg::RegAck { word, .. }
            | DnvMsg::Xfer { word, .. }
            | DnvMsg::WbReq { word, .. }
            | DnvMsg::WbAck { word }
            | DnvMsg::WbNack { word }
            | DnvMsg::SyncOp { word, .. }
            | DnvMsg::SyncResp { word, .. }
            | DnvMsg::SyncWatch { word, .. }
            | DnvMsg::SyncNotify { word, .. }
            | DnvMsg::Recall { word }
            | DnvMsg::RecallAck { word, .. }
            | DnvMsg::Classified { word } => word,
        }
    }

    /// The message type's name (telemetry / forensics labels).
    pub fn kind_name(&self) -> &'static str {
        match self {
            DnvMsg::ReadReq { .. } => "ReadReq",
            DnvMsg::RegReq { .. } => "RegReq",
            DnvMsg::ReadResp { .. } => "ReadResp",
            DnvMsg::RegAck { .. } => "RegAck",
            DnvMsg::Xfer { .. } => "Xfer",
            DnvMsg::WbReq { .. } => "WbReq",
            DnvMsg::WbAck { .. } => "WbAck",
            DnvMsg::WbNack { .. } => "WbNack",
            DnvMsg::SyncOp { .. } => "SyncOp",
            DnvMsg::SyncResp { .. } => "SyncResp",
            DnvMsg::SyncWatch { .. } => "SyncWatch",
            DnvMsg::SyncNotify { .. } => "SyncNotify",
            DnvMsg::Recall { .. } => "Recall",
            DnvMsg::RecallAck { .. } => "RecallAck",
            DnvMsg::Classified { .. } => "Classified",
        }
    }
}

/// The operation a [`DnvMsg::SyncOp`] asks the home bank to perform on a
/// sync-classified word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcsOpKind {
    /// Read the current value.
    Load,
    /// Store a new value (release write executed at the directory).
    Store {
        /// Value stored.
        value: u64,
    },
    /// Atomic read-modify-write executed at the directory.
    Rmw(RmwOp),
}

impl GcsOpKind {
    /// Payload words beyond the header (CAS ships both compare and swap
    /// values; other ops at most one operand).
    pub fn payload_words(self) -> u64 {
        match self {
            GcsOpKind::Load => 0,
            GcsOpKind::Rmw(RmwOp::Cas { .. }) => 2,
            GcsOpKind::Store { .. } | GcsOpKind::Rmw(_) => 1,
        }
    }
}

/// Any message on the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Msg {
    /// A MESI protocol message.
    Mesi(MesiMsg),
    /// A DeNovo protocol message (GCS's sync path included).
    Dnv(DnvMsg),
    /// L2 bank asks a memory controller for a line.
    MemRead {
        /// The line.
        line: LineAddr,
        /// Requesting bank.
        bank: BankId,
        /// Traffic class of the triggering transaction.
        class: TrafficClass,
    },
    /// Memory controller returns a line to an L2 bank.
    MemData {
        /// The line.
        line: LineAddr,
        /// Line contents from DRAM.
        data: LineData,
        /// Traffic class of the triggering transaction.
        class: TrafficClass,
    },
    /// L2 bank writes words back to memory (fire-and-forget).
    MemWrite {
        /// The line.
        line: LineAddr,
        /// Data to write.
        data: LineData,
        /// Which words are meaningful.
        mask: u8,
    },
}

impl Msg {
    /// The cache line this message concerns.
    pub fn line(&self) -> LineAddr {
        match self {
            Msg::Mesi(m) => m.line(),
            Msg::Dnv(m) => m.word().line(),
            Msg::MemRead { line, .. } | Msg::MemData { line, .. } | Msg::MemWrite { line, .. } => {
                *line
            }
        }
    }

    /// Total wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Msg::Mesi(m) => m.wire_bytes(),
            Msg::Dnv(m) => m.wire_bytes(),
            Msg::MemRead { .. } => HEADER_BYTES,
            Msg::MemData { .. } => HEADER_BYTES + WORDS_PER_LINE as u64 * WORD_BYTES,
            Msg::MemWrite { mask, .. } => HEADER_BYTES + WORD_BYTES * u64::from(mask.count_ones()),
        }
    }

    /// Size in 16-bit flits.
    pub fn flits(&self) -> u64 {
        self.wire_bytes().div_ceil(dvs_noc::FLIT_BYTES)
    }

    /// Traffic class.
    pub fn class(&self) -> TrafficClass {
        match self {
            Msg::Mesi(m) => m.class(),
            Msg::Dnv(m) => m.class(),
            Msg::MemRead { class, .. } | Msg::MemData { class, .. } => *class,
            Msg::MemWrite { .. } => TrafficClass::Writeback,
        }
    }

    /// The message type's name (telemetry / forensics labels).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Msg::Mesi(m) => m.kind_name(),
            Msg::Dnv(m) => m.kind_name(),
            Msg::MemRead { .. } => "MemRead",
            Msg::MemData { .. } => "MemData",
            Msg::MemWrite { .. } => "MemWrite",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> LineAddr {
        LineAddr::new(5)
    }

    fn word() -> WordAddr {
        WordAddr::new(40)
    }

    #[test]
    fn mesi_control_messages_are_four_flits() {
        let msgs = [
            MesiMsg::GetS {
                line: line(),
                req: 0,
            },
            MesiMsg::GetM {
                line: line(),
                req: 0,
            },
            MesiMsg::Inv {
                line: line(),
                req: 1,
            },
            MesiMsg::InvAck {
                line: line(),
                from: 2,
            },
            MesiMsg::PutAck { line: line() },
        ];
        for m in msgs {
            assert_eq!(Msg::Mesi(m).flits(), 4, "{m:?}");
        }
    }

    #[test]
    fn mesi_data_messages_carry_the_full_line() {
        let m = Msg::Mesi(MesiMsg::Data {
            line: line(),
            data: [0; WORDS_PER_LINE],
            acks: 0,
            exclusive: false,
            class: TrafficClass::Load,
        });
        assert_eq!(m.flits(), 36);
    }

    #[test]
    fn denovo_responses_carry_only_valid_words() {
        let bare = Msg::Dnv(DnvMsg::ReadResp {
            word: word(),
            value: 1,
            fill: None,
        });
        assert_eq!(bare.flits(), 8);
        let with_three = Msg::Dnv(DnvMsg::ReadResp {
            word: word(),
            value: 1,
            fill: Some((0b0000_0111, [0; WORDS_PER_LINE])),
        });
        assert_eq!(with_three.flits(), 8 + 3 * 4);
        // Even a full-line DeNovo fill matches the MESI line message.
        let full = Msg::Dnv(DnvMsg::ReadResp {
            word: word(),
            value: 1,
            fill: Some((0xFF, [0; WORDS_PER_LINE])),
        });
        assert_eq!(full.flits(), 4 + 4 + 32);
    }

    #[test]
    fn traffic_classes_follow_the_paper() {
        assert_eq!(
            Msg::Mesi(MesiMsg::Inv {
                line: line(),
                req: 0
            })
            .class(),
            TrafficClass::Invalidation
        );
        assert_eq!(
            Msg::Mesi(MesiMsg::GetM {
                line: line(),
                req: 0
            })
            .class(),
            TrafficClass::Store
        );
        assert_eq!(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(),
                req: 0,
                class: XferClass::SyncRead
            })
            .class(),
            TrafficClass::Sync
        );
        assert_eq!(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(),
                req: 0,
                class: XferClass::Write
            })
            .class(),
            TrafficClass::Store
        );
        assert_eq!(
            Msg::Dnv(DnvMsg::WbReq {
                word: word(),
                value: 0,
                from: 0
            })
            .class(),
            TrafficClass::Writeback
        );
    }

    #[test]
    fn xfer_class_properties() {
        assert!(XferClass::Write.registers());
        assert!(XferClass::SyncRead.registers());
        assert!(!XferClass::DataRead.registers());
        assert_eq!(XferClass::SyncWrite.traffic(), TrafficClass::Sync);
    }

    #[test]
    fn mem_write_size_scales_with_mask() {
        let m = Msg::MemWrite {
            line: line(),
            data: [0; WORDS_PER_LINE],
            mask: 0b0000_0011,
        };
        assert_eq!(m.wire_bytes(), 8 + 16);
        assert_eq!(m.class(), TrafficClass::Writeback);
    }

    #[test]
    fn accessors_return_the_address() {
        assert_eq!(MesiMsg::PutAck { line: line() }.line(), line());
        assert_eq!(DnvMsg::WbAck { word: word() }.word(), word());
        assert_eq!(DnvMsg::Recall { word: word() }.word(), word());
    }

    #[test]
    fn gcs_sync_path_sizes_and_classes() {
        let load = Msg::Dnv(DnvMsg::SyncOp {
            word: word(),
            req: 0,
            op: GcsOpKind::Load,
        });
        assert_eq!(load.wire_bytes(), HEADER_BYTES);
        assert_eq!(load.class(), TrafficClass::Sync);
        let cas = Msg::Dnv(DnvMsg::SyncOp {
            word: word(),
            req: 0,
            op: GcsOpKind::Rmw(RmwOp::Cas {
                expected: 0,
                new: 1,
            }),
        });
        assert_eq!(cas.wire_bytes(), HEADER_BYTES + 2 * WORD_BYTES);
        let fai = Msg::Dnv(DnvMsg::SyncOp {
            word: word(),
            req: 0,
            op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
        });
        assert_eq!(fai.wire_bytes(), HEADER_BYTES + WORD_BYTES);
        let notify = Msg::Dnv(DnvMsg::SyncNotify {
            word: word(),
            value: 7,
        });
        assert_eq!(notify.wire_bytes(), HEADER_BYTES + WORD_BYTES);
        assert_eq!(notify.class(), TrafficClass::Sync);
        // Recall is a forced writeback: account it with the WB traffic.
        let recall = Msg::Dnv(DnvMsg::Recall { word: word() });
        assert_eq!(recall.wire_bytes(), HEADER_BYTES);
        assert_eq!(recall.class(), TrafficClass::Writeback);
        let ack_some = Msg::Dnv(DnvMsg::RecallAck {
            word: word(),
            from: 3,
            value: Some(9),
        });
        assert_eq!(ack_some.wire_bytes(), HEADER_BYTES + WORD_BYTES);
        let ack_none = Msg::Dnv(DnvMsg::RecallAck {
            word: word(),
            from: 3,
            value: None,
        });
        assert_eq!(ack_none.wire_bytes(), HEADER_BYTES);
        assert_eq!(
            Msg::Dnv(DnvMsg::Classified { word: word() }).wire_bytes(),
            HEADER_BYTES
        );
    }
}
