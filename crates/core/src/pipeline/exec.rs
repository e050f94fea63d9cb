//! Execute-stage mechanism: operand dataflow (bypass networks, VMLA
//! late-forwarding, store-to-load forwarding) and completion timing of
//! multi-cycle, memory and control operations.
//!
//! Completion timing of *recyclable* (single-cycle-class) operations is
//! policy and is delegated to [`Scheduler::on_issue`]; whether an operand
//! crosses the transparent bypass is delegated to
//! [`Scheduler::transparent_pair`]. Everything else here is fixed
//! mechanism shared by every scheduler.

// Invariant `expect`s in this module are deliberate: each one guards a
// structural pipeline invariant that only a simulator bug can violate
// (never operator input), and a loud abort — isolated and quarantined
// per job by the bench supervisor — beats silently corrupting a
// result. The per-cycle hot path stays `Result`-free.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use redsoc_isa::instruction::Instr;
use redsoc_isa::opcode::{ExecClass, SimdOp};
use redsoc_isa::trace::DynOp;
use redsoc_mem::{MemReject, MemResponse};

use crate::sched::{ExecTiming, Scheduler};

use super::state::{Ifo, PipelineState};

/// How a load's value was (or was not) obtained by `multi_cycle_timing`:
/// not a memory access at all, forwarded from an older in-flight store,
/// or serviced by the memory model with the attached response.
pub(crate) enum LoadPath {
    /// Not a load (or a recyclable class that never reaches here).
    NotMem,
    /// Store-to-load forwarding from the LSQ; no cache access happened.
    Forwarded {
        /// Sequence number of the forwarding store.
        store_seq: u64,
    },
    /// Serviced by the memory model.
    Mem(MemResponse),
}

impl PipelineState {
    /// Whether `consumer` is a VMLA reading `tag`'s value through its
    /// accumulate operand (i.e. the producer wrote the VMLA's destination
    /// register). Only this operand is late-forwarded; the multiply
    /// operands feed the front of the multiply pipeline.
    pub(crate) fn is_acc_operand(producer: &Ifo, consumer: &Ifo) -> bool {
        let Instr::Simd {
            op: SimdOp::Vmla,
            dst,
            ..
        } = consumer.op.instr
        else {
            return false;
        };
        producer.dst_arch == Some(dst)
    }

    /// First cycle at which consumers of `tag` may be selected; `None` if
    /// the producer has not issued yet. Retired producers are ready.
    ///
    /// A VMLA's multiply operands need an extra `simd_mul - 1` cycles of
    /// lead so the pipelined multiply overlaps the accumulate chain (§V
    /// late-forwarding); its accumulate operand follows the normal
    /// single-cycle path.
    #[must_use]
    pub fn src_sel_ready(&self, tag: u64, consumer: &Ifo) -> Option<u64> {
        let Some(p) = self.ifo(tag) else {
            return Some(0);
        };
        if !p.issued {
            return None;
        }
        let is_vmla = matches!(
            consumer.op.instr,
            Instr::Simd {
                op: SimdOp::Vmla,
                ..
            }
        );
        if is_vmla && !Self::is_acc_operand(p, consumer) {
            return Some(p.sel_ready + u64::from(self.latencies.simd_mul - 1));
        }
        Some(p.sel_ready)
    }

    /// The tick at which `consumer` can use `tag`'s value: the raw
    /// Completion Instant when the scheduler's
    /// [`transparent_pair`](Scheduler::transparent_pair) policy allows the
    /// transparent bypass, or the next clock boundary.
    ///
    /// A VMLA consumer sees transparency only on its accumulate operand —
    /// multiply operands enter the (true-synchronous) multiply array.
    pub(crate) fn avail_for<Sch: Scheduler + ?Sized>(
        &self,
        sched: &Sch,
        tag: u64,
        consumer: &Ifo,
    ) -> (u64, bool) {
        let Some(p) = self.ifo(tag) else {
            return (0, false);
        };
        debug_assert!(p.issued, "avail_for called before producer issue");
        let is_vmla = matches!(
            consumer.op.instr,
            Instr::Simd {
                op: SimdOp::Vmla,
                ..
            }
        );
        if is_vmla && !Self::is_acc_operand(p, consumer) {
            return (self.quant.ceil_to_cycle(p.avail), false);
        }
        if sched.transparent_pair(p, consumer) {
            (p.avail, self.quant.ci_of(p.avail) != 0)
        } else {
            (self.quant.ceil_to_cycle(p.avail), false)
        }
    }

    /// Whether a waiting load is blocked by an older overlapping store that
    /// has not produced its data yet (perfect disambiguation: the trace
    /// gives exact addresses). Walks the in-window store index
    /// (`store_seqs`, program order) rather than the whole window.
    #[must_use]
    pub fn load_blocked(&self, load: &Ifo) -> bool {
        let Some(addr) = load.op.eff_addr else {
            return false;
        };
        let (a0, a1) = Self::byte_range(addr, &load.op.instr);
        self.store_seqs
            .iter()
            .take_while(|&&s| s < load.op.seq)
            .any(|&s| {
                self.ifo(s).is_some_and(|st| {
                    !st.issued
                        && st.op.eff_addr.is_some_and(|sa| {
                            let (s0, s1) = Self::byte_range(sa, &st.op.instr);
                            s0 < a1 && a0 < s1
                        })
                })
            })
    }

    pub(crate) fn byte_range(addr: u32, instr: &Instr) -> (u64, u64) {
        let w = match instr {
            Instr::Load { width, .. } | Instr::Store { width, .. } => width.bytes(),
            _ => 4,
        };
        (u64::from(addr), u64::from(addr) + u64::from(w))
    }

    /// The youngest older store overlapping this load, if any (for
    /// store-to-load forwarding). The store index is in program order, so
    /// the first overlap found scanning backwards is the youngest.
    pub(crate) fn forwarding_store(&self, load: &Ifo) -> Option<&Ifo> {
        let addr = load.op.eff_addr?;
        let (a0, a1) = Self::byte_range(addr, &load.op.instr);
        self.store_seqs
            .iter()
            .rev()
            .skip_while(|&&s| s >= load.op.seq)
            .find_map(|&s| {
                self.ifo(s).filter(|st| {
                    st.op.eff_addr.is_some_and(|sa| {
                        let (s0, s1) = Self::byte_range(sa, &st.op.instr);
                        s0 < a1 && a0 < s1
                    })
                })
            })
    }

    /// Completion/occupancy timing for non-recyclable classes: multi-cycle
    /// arithmetic, memory and control. Returns the timing plus the load's
    /// memory path. Loads request service from the memory port here; a
    /// structural rejection (MSHRs full under the contended model)
    /// surfaces as `Err` and the caller parks the entry until the retry
    /// horizon.
    pub(crate) fn multi_cycle_timing(
        &mut self,
        seq: u64,
        op: &DynOp,
        class: ExecClass,
        t: u64,
    ) -> Result<(ExecTiming, LoadPath), MemReject> {
        let q = self.quant;
        let boundary = |l: u64, occupancy: u32| ExecTiming {
            sel_ready: t + l,
            avail: q.cycle_start(t + 1 + l),
            done_cycle: t + 1 + l,
            occupancy,
            held_two: false,
        };
        Ok(match class {
            ExecClass::IntMul => (
                boundary(u64::from(self.latencies.int_mul), 1),
                LoadPath::NotMem,
            ),
            ExecClass::IntDiv => (
                boundary(u64::from(self.latencies.int_div), self.latencies.int_div),
                LoadPath::NotMem,
            ),
            ExecClass::Fp => {
                let instr_lat = match op.instr {
                    Instr::Fp {
                        op: redsoc_isa::opcode::FpOp::Fdiv,
                        ..
                    } => self.latencies.fp_div,
                    Instr::Fp {
                        op: redsoc_isa::opcode::FpOp::Fmul,
                        ..
                    } => self.latencies.fp_mul,
                    _ => self.latencies.fp_add,
                };
                (boundary(u64::from(instr_lat), 1), LoadPath::NotMem)
            }
            ExecClass::SimdMul => (
                boundary(u64::from(self.latencies.simd_mul), 1),
                LoadPath::NotMem,
            ),
            ExecClass::Load => {
                let fwd = {
                    let x = self.ifo(seq).expect("requesting entry exists");
                    self.forwarding_store(x).map(|s| (s.op.seq, s.done_cycle))
                };
                if let Some((store_seq, store_done)) = fwd {
                    // Store-to-load forwarding: 2-cycle effective latency
                    // once the store's data is in the LSQ.
                    let ready = store_done.max(t);
                    let l = (ready - t) + 2;
                    (boundary(l, 1), LoadPath::Forwarded { store_seq })
                } else {
                    let addr = u64::from(op.eff_addr.expect("loads carry addresses"));
                    let res = self.memory.request(seq, op.pc, addr, false, t)?;
                    let l = 1 + res.latency_cycles; // AGU + access
                    (boundary(l, 1), LoadPath::Mem(res))
                }
            }
            ExecClass::Store | ExecClass::Branch => (boundary(1, 1), LoadPath::NotMem),
            ExecClass::IntAlu | ExecClass::SimdAlu => {
                unreachable!("single-cycle ALU classes are always recyclable")
            }
        })
    }
}
