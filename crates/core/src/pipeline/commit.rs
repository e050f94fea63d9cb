//! Commit stage: in-order retirement from the reorder buffer, store
//! writeback into the memory hierarchy, Fig. 10 op-mix classification and
//! lazy window retirement (chain statistics).
//!
//! [`Scheduler::on_writeback`] fires for every retiring op — the
//! extension point for designs that train predictors on observed
//! completion behaviour.

// Invariant `expect`s in this module are deliberate: each one guards a
// structural pipeline invariant that only a simulator bug can violate
// (never operator input), and a loud abort — isolated and quarantined
// per job by the bench supervisor — beats silently corrupting a
// result. The per-cycle hot path stays `Result`-free.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use redsoc_isa::instruction::Instr;
use redsoc_timing::slack::WidthClass;

use crate::events::{EventSink, PipeEvent};
use crate::sched::Scheduler;
use crate::stats::OpCategory;

use super::state::PipelineState;

impl PipelineState {
    pub(crate) fn commit<Sch: Scheduler + ?Sized, S: EventSink>(
        &mut self,
        sched: &Sch,
        sink: &mut S,
    ) {
        for _ in 0..self.config.frontend_width {
            let head_idx = (self.committed_total - self.base_seq) as usize;
            let Some(head) = self.ifos.get(head_idx) else {
                break;
            };
            if !head.issued || self.cycle < head.done_cycle {
                break;
            }
            sched.on_writeback(head, self.cycle);
            // `DynOp` and the flags are Copy: no full-entry clone needed.
            let (op, mut l1_miss, done_cycle) = (head.op, head.l1_miss, head.done_cycle);
            // Stores update the memory system at retirement. The port
            // contract guarantees stores are never structurally rejected
            // (they allocate no MSHR), so an `Err` here is a model bug.
            if let Instr::Store { .. } = op.instr {
                let addr = u64::from(op.eff_addr.expect("stores carry addresses"));
                let res = self
                    .memory
                    .request(op.seq, op.pc, addr, true, self.cycle)
                    .expect("memory models never reject stores");
                l1_miss = res.outcome.is_high_latency();
            }
            // Fig. 10 classification uses the *actual* operand width.
            let cat = OpCategory::classify(
                &op.instr,
                l1_miss,
                WidthClass::from_bits(op.eff_bits),
                &self.lut,
            );
            self.report.op_mix.record(cat);
            if op.instr.is_mem() {
                self.lsq_used -= 1;
            }
            self.ifos[head_idx].committed = true;
            self.committed_total += 1;
            if S::ENABLED {
                sink.record(
                    self.cycle,
                    &PipeEvent::Writeback {
                        seq: op.seq,
                        done_cycle,
                    },
                );
                sink.record(
                    self.cycle,
                    &PipeEvent::Commit {
                        seq: op.seq,
                        pc: op.pc,
                    },
                );
            }
        }
        // Retire old entries lazily, keeping a window behind the head so
        // chain statistics and RAT references stay resolvable.
        let lag = u64::from(self.config.rob_entries) + 64;
        while self.base_seq + lag < self.committed_total {
            let gone = self.ifos.pop_front().expect("window non-empty");
            debug_assert!(gone.committed);
            if gone.chain_len >= 2 && !gone.chain_extended {
                self.report.chains.record(gone.chain_len);
            }
            self.base_seq += 1;
        }
        // Keep the store index in step with the window slide.
        while self.store_seqs.front().is_some_and(|&s| s < self.base_seq) {
            self.store_seqs.pop_front();
        }
    }

    /// Flush remaining chain records at end of simulation.
    pub(crate) fn drain_chain_stats(&mut self) {
        while let Some(gone) = self.ifos.pop_front() {
            if gone.chain_len >= 2 && !gone.chain_extended {
                self.report.chains.record(gone.chain_len);
            }
            self.base_seq += 1;
        }
    }
}
