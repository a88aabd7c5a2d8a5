//! The uncached reference scheduler, compiled for unit tests only.
//!
//! This is the controller's original FR-FCFS scan: every wake
//! re-derives row state from the device, walks the whole queue, and
//! asks [`lh_dram::DramDevice::earliest_legal`] about every candidate.
//! It caches nothing, which makes it the oracle the verdict-caching
//! scheduler in `sched.rs` is held to: the differential proptest below
//! drives one controller through [`MemoryController::service`] and an
//! identical one through `service_reference` and requires the same
//! wakes, completions and statistics.

use lh_dram::{AlertScope, BankId, Command, RfmScope, Time};

use super::{AboPhase, MemoryController, QueueSel, RowPolicy, Step};
use crate::request::AccessKind;

impl MemoryController {
    /// [`MemoryController::service`] on the uncached full scan. It
    /// leaves the cached scheduler state behind, so a controller driven
    /// through it must not be serviced through `service` afterwards.
    fn service_reference(&mut self, now: Time) -> Time {
        self.stats.service_calls += 1;
        loop {
            self.update_modes(now);
            match self.next_step_ref(now) {
                Step::Issue(cmd, served) => self.issue(cmd, now, served),
                Step::Again => {}
                Step::Wait(t) => {
                    assert!(t > now, "reference wake {t} not strictly after now {now}");
                    return t;
                }
            }
        }
    }

    /// Flat indices of banks blocked for new row/column commands.
    fn blocked_banks(&self) -> Vec<usize> {
        let g = self.device.geometry();
        let mut blocked = Vec::new();
        // Front PRFM RFM quiesces its target banks.
        if let Some(&(rank, scope)) = self.rfm_queue.front() {
            blocked.extend(self.device.rfm_banks(rank, scope));
        }
        // Bank-scope ABO recovery quiesces the alert bank.
        if let Some(abo) = &self.abo {
            if abo.phase == AboPhase::Recover
                && self.device.prac_config().map(|p| p.scope) == Some(AlertScope::Bank)
            {
                blocked.push(g.flat_bank(abo.alert.bank));
            }
        }
        // PARA front job owns its bank.
        if let Some(job) = self.para_queue.front() {
            blocked.push(g.flat_bank(job.bank));
        }
        blocked
    }

    /// Whether any bank of `rank` holds an open row.
    fn rank_has_open_row(&self, rank: u32) -> bool {
        self.device
            .geometry()
            .banks_in_channel(0)
            .filter(|b| b.rank == rank)
            .any(|b| self.device.open_row(b).is_some())
    }

    /// The uncached full scan: one scheduling decision at `now`.
    fn next_step_ref(&mut self, now: Time) -> Step {
        let t = *self.device.timing();
        let mut wake = Time::MAX;

        // --- 1. ABO back-off protocol -----------------------------------
        if let Some(abo) = self.abo {
            match abo.phase {
                AboPhase::Window => {
                    wake = wake.min(abo.recover_at);
                    // Normal traffic continues below.
                }
                AboPhase::Recover => {
                    let scope = self
                        .device
                        .prac_config()
                        .map(|p| p.scope)
                        .unwrap_or(AlertScope::Channel);
                    let rank = abo.alert.bank.rank;
                    let close_cmd = match scope {
                        AlertScope::Channel => self
                            .rank_has_open_row(rank)
                            .then_some(Command::PrechargeAll { channel: 0, rank }),
                        AlertScope::Bank => {
                            self.device.open_row(abo.alert.bank).is_some().then_some(
                                Command::Precharge {
                                    bank: abo.alert.bank,
                                },
                            )
                        }
                    };
                    if let Some(cmd) = close_cmd {
                        if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                            return step;
                        }
                    } else if abo.rfms_left > 0 {
                        let rfm_scope = match scope {
                            AlertScope::Channel => RfmScope::AllBank,
                            AlertScope::Bank => RfmScope::SingleBank {
                                bank_group: abo.alert.bank.bank_group,
                                bank: abo.alert.bank.bank,
                            },
                        };
                        let cmd = Command::Rfm {
                            channel: 0,
                            rank,
                            scope: rfm_scope,
                        };
                        if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                            return step;
                        }
                    } else {
                        // All recovery RFMs issued; recovery ends when the
                        // last RFM's window closes.
                        self.device.recovery_complete(abo.last_rfm_end);
                        self.abo = None;
                        self.stats.backoffs += 1;
                        return Step::Again;
                    }
                    if scope == AlertScope::Channel {
                        // Channel-scope recovery stalls everything else.
                        return Step::Wait(wake);
                    }
                }
            }
        }

        // --- 2. Committed refreshes -------------------------------------
        for rank in 0..self.ref_due.len() as u32 {
            let pending = self.ref_pending[rank as usize];
            let due = self.ref_due[rank as usize];
            if due > now {
                // Next commit decision point.
                wake = wake.min(due);
            }
            if pending == 0 {
                if now >= due && self.abo.is_none() {
                    // A REF is owed but uncommitted: the FR-RFM spacing
                    // rules in `update_modes` found no clear slot yet.
                    // The commit predicate can only flip at the post-RFM
                    // settle expiry, at the bounded-deferral timeout, or
                    // when the RFM deadline advances (event-driven: an
                    // issued RFM re-runs `update_modes`). An in-flight
                    // ABO defers commitment too, but its completion also
                    // re-evaluates immediately.
                    let settle_end = self.rfm_end[rank as usize] + self.cfg.frrfm_guard * 2;
                    if settle_end > now {
                        wake = wake.min(settle_end);
                    }
                    let timeout = due + t.t_refi / 2;
                    if timeout > now {
                        wake = wake.min(timeout);
                    }
                }
                continue;
            }
            // Safety net mirroring the commit-time rule: a committed REF
            // still never *starts* so late that it would be blocking the
            // rank at the fixed-rate RFM deadline (zero RFM jitter is
            // FR-RFM's security property). Dense schedules where a REF
            // can never fit between two RFMs forgo the rule — refresh
            // must still happen, and the stacking is deterministic.
            if let (Some(deadline), Some(period)) =
                (self.defense.next_deadline(rank, now), self.maint_period)
            {
                let fits_between_rfms = t.t_rfm + t.t_rfc + t.t_cmd * 2 <= period;
                if fits_between_rfms && now + t.t_rfc + t.t_cmd > deadline {
                    // Wait out the maintenance window; once its RFM
                    // issues the deadline advances and this re-evaluates
                    // (event-driven), so only a future deadline is a
                    // timed wake.
                    if deadline > now {
                        wake = wake.min(deadline);
                    }
                    continue;
                }
            }
            let cmd = if self.rank_has_open_row(rank) {
                Command::PrechargeAll { channel: 0, rank }
            } else {
                Command::Refresh { channel: 0, rank }
            };
            if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                return step;
            }
        }

        // --- 3. Scheduled maintenance (FR-RFM fixed-rate RFMs) ----------
        // Deadline-driven defenses publish their next operation through
        // `Defense::next_maintenance`; the controller quiesces the rank,
        // closes its banks shortly before the deadline and issues the
        // operation exactly on time — without knowing which defense
        // scheduled it.
        for rank in 0..self.ref_due.len() as u32 {
            if let Some(m) = self.defense.next_maintenance(rank) {
                let deadline = m.due;
                // Close banks shortly before the deadline.
                let close_at = deadline - t.t_rp - t.t_cmd;
                if now < close_at {
                    wake = wake.min(close_at);
                    continue;
                }
                if self.rank_has_open_row(rank) {
                    let cmd = Command::PrechargeAll { channel: 0, rank };
                    if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                        return step;
                    }
                } else if now < deadline {
                    // Quiesced early: the RFM waits for its exact slot.
                    wake = wake.min(deadline);
                } else {
                    let cmd = Command::Rfm {
                        channel: 0,
                        rank,
                        scope: m.scope,
                    };
                    if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                        return step;
                    }
                }
            }
        }

        // --- 4. Reactive RFMs (PRFM) -------------------------------------
        if let Some(&(rank, scope)) = self.rfm_queue.front() {
            let banks = self.device.rfm_banks(rank, scope);
            let open: Vec<BankId> = banks
                .iter()
                .map(|&f| self.device.geometry().bank_from_flat(0, f))
                .filter(|&b| self.device.open_row(b).is_some())
                .collect();
            let cmd = if let Some(&bank) = open.first() {
                Command::Precharge { bank }
            } else {
                Command::Rfm {
                    channel: 0,
                    rank,
                    scope,
                }
            };
            if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                return step;
            }
        }

        // --- 5. PARA victim refreshes ------------------------------------
        if let Some(job) = self.para_queue.front().copied() {
            let open = self.device.open_row(job.bank);
            let cmd = match (job.activated, open) {
                (false, Some(_)) => Command::Precharge { bank: job.bank },
                (false, None) => Command::Activate {
                    bank: job.bank,
                    row: job.victim,
                },
                (true, Some(_)) => Command::Precharge { bank: job.bank },
                (true, None) => {
                    // Victim refreshed and closed: job done.
                    self.para_queue.pop_front();
                    return Step::Again;
                }
            };
            if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                return step;
            }
        }

        // --- 5b. Strictly closed-page policy ----------------------------
        // §9's DRAMA defense: a row is precharged immediately after every
        // access (auto-precharge semantics), so the row-buffer state never
        // carries information. A row that was activated but has not served
        // a column command yet stays open — closing it earlier would
        // starve its own request.
        if self.cfg.row_policy == RowPolicy::Closed && !self.abo_channel_stall() {
            let g = *self.device.geometry();
            for bank in g.banks_in_channel(0) {
                let Some(open_row) = self.device.open_row(bank) else {
                    continue;
                };
                let flat = g.flat_bank(bank);
                let (srow, served) = self.streak[flat];
                if srow != open_row || served == 0 {
                    continue;
                }
                let cmd = Command::Precharge { bank };
                if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                    return step;
                }
            }
        }

        // --- 6. Demand requests (FR-FCFS with column cap) ----------------
        if !self.abo_channel_stall() {
            let sel = if self.draining || (self.read_q.is_empty() && !self.write_q.is_empty()) {
                QueueSel::Write
            } else {
                QueueSel::Read
            };
            let (step_wake, step) = self.schedule_demand_ref(sel, now);
            if let Some(s) = step {
                return s;
            }
            wake = wake.min(step_wake);
        }

        Step::Wait(wake)
    }

    /// FR-FCFS selection over one queue. Returns (wake, chosen step).
    fn schedule_demand_ref(&self, sel: QueueSel, now: Time) -> (Time, Option<Step>) {
        let q = match sel {
            QueueSel::Read => &self.read_q,
            QueueSel::Write => &self.write_q,
        };
        let g = self.device.geometry();
        let blocked = self.blocked_banks();
        let mut wake = Time::MAX;

        // Per-bank pending hit/conflict summary for cap & precharge guards.
        let mut bank_has_hit = vec![false; g.banks_per_channel() as usize];
        let mut bank_has_conflict = vec![false; g.banks_per_channel() as usize];
        for req in q.iter() {
            let flat = g.flat_bank(req.addr.bank);
            match self.device.open_row(req.addr.bank) {
                Some(r) if r == req.addr.row => bank_has_hit[flat] = true,
                Some(_) => bank_has_conflict[flat] = true,
                None => {}
            }
        }

        // Candidate = (is_not_hit, earliest, arrival, idx, cmd).
        let mut best: Option<(bool, Time, Time, usize, Command)> = None;
        for (idx, req) in q.iter().enumerate() {
            let bank = req.addr.bank;
            let flat = g.flat_bank(bank);
            if blocked.contains(&flat) || self.rank_quiesced(bank.rank, now) {
                continue;
            }
            // BlockHammer: a throttled row cannot be (re)activated yet —
            // the observable delay of this defense class. Row hits to a
            // still-open throttled row are allowed (the throttle gates
            // ACT, not column commands).
            if let Some(&until) = self.throttled.get(&(flat, req.addr.row)) {
                if until > now && self.device.open_row(bank) != Some(req.addr.row) {
                    wake = wake.min(until);
                    continue;
                }
            }
            let open = self.device.open_row(bank);
            let (cmd, is_hit) = match open {
                Some(r) if r == req.addr.row => {
                    let c = match req.kind {
                        AccessKind::Read => Command::Read {
                            bank,
                            col: req.addr.col,
                        },
                        AccessKind::Write => Command::Write {
                            bank,
                            col: req.addr.col,
                        },
                    };
                    (c, true)
                }
                Some(_) => {
                    // Respect open rows that still have uncapped hits.
                    let (srow, scount) = self.streak[flat];
                    let capped = srow == open.unwrap() && scount >= self.cfg.col_cap;
                    if bank_has_hit[flat] && !capped {
                        continue;
                    }
                    (Command::Precharge { bank }, false)
                }
                None => (
                    Command::Activate {
                        bank,
                        row: req.addr.row,
                    },
                    false,
                ),
            };
            if is_hit {
                // Column cap: once `col_cap` consecutive hits were served
                // while a conflicting request waits, stop preferring hits.
                let (srow, scount) = self.streak[flat];
                if srow == req.addr.row && scount >= self.cfg.col_cap && bank_has_conflict[flat] {
                    continue;
                }
            }
            let at = self.device.earliest_legal(&cmd, now);
            let key = (!is_hit, at, req.arrival, idx, cmd);
            let better = match &best {
                None => true,
                Some(b) => {
                    // Issueable-now candidates first (hit-priority, then
                    // age); otherwise the earliest future candidate.
                    let key_now = key.1 <= now;
                    let best_now = b.1 <= now;
                    match (key_now, best_now) {
                        (true, false) => true,
                        (false, true) => false,
                        (true, true) => (key.0, key.2) < (b.0, b.2),
                        (false, false) => key.1 < b.1,
                    }
                }
            };
            if better {
                best = Some(key);
            }
        }
        match best {
            Some((_, at, _, idx, cmd)) if at <= now => {
                let served = cmd.is_column().then_some((sel, idx));
                (wake, Some(Step::Issue(cmd, served)))
            }
            Some((_, at, _, _, _)) => {
                wake = wake.min(at);
                (wake, None)
            }
            None => (wake, None),
        }
    }
}

mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    use lh_defenses::{DefenseConfig, DefenseKind};
    use lh_dram::{BankId, DeviceConfig, DramAddr, DramTiming, Geometry, Span, Time};
    use lh_mitigate::{MitigationConfig, MitigationKind};

    use crate::{AccessKind, CtrlConfig, MemRequest, MemoryController, RowPolicy};

    /// RowHammer threshold every defense is provisioned for: low enough
    /// that the short streams below trigger back-offs, RFMs, victim
    /// refreshes and throttles.
    const NRH: u32 = 64;

    /// Two ranks of 2 × 2 banks: small enough for a short stream to
    /// hammer, wide enough to exercise the per-rank memos.
    fn geometry() -> Geometry {
        Geometry::new(1, 2, 2, 2, 1024, 128).expect("valid geometry")
    }

    fn controller(kind: DefenseKind, policy: RowPolicy, stacked: bool) -> MemoryController {
        let t = DramTiming::ddr5_4800();
        let mut dev = DeviceConfig::paper_default();
        dev.geometry = geometry();
        let cfg = CtrlConfig {
            row_policy: policy,
            ..CtrlConfig::paper_default()
        };
        // Quota throttles activations, the shaper adds its own
        // maintenance stream, jitter moves every maintenance deadline.
        let stack: Vec<MitigationConfig> = if stacked {
            [
                MitigationKind::IsolationQuota,
                MitigationKind::ConstantRateShaper,
                MitigationKind::MaintenanceJitter,
            ]
            .iter()
            .map(|&k| MitigationConfig::for_threshold(k, NRH, &t))
            .collect()
        } else {
            Vec::new()
        };
        let defense = DefenseConfig::for_threshold(kind, NRH, &t);
        MemoryController::with_mitigations(cfg, dev, defense, &stack, 11).expect("valid controller")
    }

    /// One stream event: `((rank, bank group, bank, row, col), (read,
    /// hammer, kick, gap class, gap in ns))`. A `hammer` request targets
    /// one of two rows around row 11 of bank 0 instead of its own
    /// coordinates; a `kick` of 0 carries no request, only a service
    /// call. Gap class 0 lands on the previous event's instant, class 1
    /// shortens the gap below 80 ns.
    type Event = ((u32, u32, u32, u32, u32), (bool, bool, u8, u8, u64));

    /// Drives a `service` controller and a `service_reference`
    /// controller through the same stream, requiring equal wakes and
    /// completions on every call and equal final statistics.
    fn run_pair(
        kind: DefenseKind,
        policy: RowPolicy,
        stacked: bool,
        events: &[Event],
    ) -> Result<(), TestCaseError> {
        let mut fast = controller(kind, policy, stacked);
        let mut slow = controller(kind, policy, stacked);
        let mut pending = VecDeque::new();
        let mut at = Time::ZERO;
        for (i, &((rank, bg, bank, row, col), (read, hammer, kick, class, gap))) in
            events.iter().enumerate()
        {
            at += Span::from_ns(match class {
                0 => 0,
                1 => gap % 80,
                _ => gap,
            });
            let (bank, row) = if hammer {
                (BankId::new(0, 0, 0, 0), 10 + 2 * (i as u32 % 2))
            } else {
                (BankId::new(0, rank, bg, bank), row)
            };
            let req = (kick != 0).then_some(MemRequest {
                id: i as u64,
                addr: DramAddr::new(bank, row, col),
                kind: if read {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                arrival: at,
                source: 0,
            });
            pending.push_back((at, req));
        }
        let end = at + Span::from_us(20);
        // Requests the full queues turned away, retried (restamped)
        // after every service call, as `lh-sim` does.
        let mut backlog: VecDeque<MemRequest> = VecDeque::new();
        let mut now = Time::ZERO;
        while now < end {
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                if let Some((_, Some(req))) = pending.pop_front() {
                    backlog.push_back(req);
                }
            }
            while let Some(mut req) = backlog.pop_front() {
                req.arrival = now;
                let accepted = fast.enqueue(req).is_ok();
                prop_assert_eq!(accepted, slow.enqueue(req).is_ok(), "enqueue at {}", now);
                if !accepted {
                    backlog.push_front(req);
                    break;
                }
            }
            let wake = fast.service(now);
            prop_assert_eq!(wake, slow.service_reference(now), "wake from {}", now);
            let done = |mc: &mut MemoryController| -> Vec<(u64, Time)> {
                mc.take_completed()
                    .iter()
                    .map(|c| (c.id, c.finished))
                    .collect()
            };
            prop_assert_eq!(done(&mut fast), done(&mut slow), "completions at {}", now);
            now = pending.front().map_or(wake, |&(t, _)| wake.min(t));
        }
        prop_assert_eq!(fast.stats(), slow.stats());
        prop_assert_eq!(fast.defense_stats(), slow.defense_stats());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The verdict-caching scheduler makes exactly the reference
        /// scan's decisions under every defense, both row policies, and
        /// with and without a mitigation stack.
        #[test]
        fn service_matches_the_reference_scan(
            events in proptest::collection::vec(
                (
                    (0u32..2, 0u32..2, 0u32..2, 0u32..6, 0u32..32),
                    (any::<bool>(), any::<bool>(), 0u8..10, 0u8..4, 0u64..400),
                ),
                1..300,
            ),
        ) {
            for kind in DefenseKind::all() {
                for policy in [RowPolicy::Open, RowPolicy::Closed] {
                    for stacked in [false, true] {
                        run_pair(kind, policy, stacked, &events)?;
                    }
                }
            }
        }
    }
}
