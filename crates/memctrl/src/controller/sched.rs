//! The FR-FCFS scheduler behind [`MemoryController::service`].
//!
//! Simulation wall-clock is dominated by the per-wake cost of
//! `service`, so the scheduler keeps its bookkeeping in a private
//! [`SchedState`] instead of re-deriving it from the device every wake:
//!
//! * a mirror of every bank's open row plus per-rank open counts, so
//!   "does this rank hold an open row" is one array read instead of a
//!   bank scan;
//! * persistent per-bank hit/conflict buffers for the FR-FCFS pre-scan
//!   (no per-wake allocation);
//! * per-wake memos for `rank_quiesced` and the per-bank
//!   `earliest_legal` of each command class — safe because within one
//!   `next_step` evaluation the device state and `now` are fixed, and
//!   ACT legality is row-independent while RD/WR legality is
//!   column-independent;
//! * an early exit from the candidate scan once an issueable-now row
//!   hit is found (see the proof at the scan);
//! * cached Wait verdicts (the FastPath and the section verdict) that
//!   let a wake inside a proven-quiet window answer without a scan, or
//!   with the demand stage alone.
//!
//! Debug builds shadow every cached verdict with a full `next_step`
//! scan, every memo with the query it caches, and the mirror with the
//! device's row state. Unit tests also keep the uncached full scan of
//! the original controller as a private `service_reference` oracle
//! (`controller/reference.rs`), and a differential proptest holds the
//! two to the same wakes, completions and statistics.
//!
//! The early exit relies on the caller contract documented on
//! [`MemoryController::enqueue`]: requests arrive with non-decreasing
//! `arrival` stamps per queue (true for `lh-sim`, which stamps
//! `arrival` with the enqueue instant, including retries).

use std::collections::VecDeque;

use lh_dram::{AlertScope, Command, DramDevice, Geometry, RfmScope, Time};

use super::{AboPhase, MemoryController, QueueSel, RowPolicy, Step};
use crate::request::{AccessKind, MemRequest};

/// Mirror value for "no open row".
const CLOSED: u32 = u32::MAX;

/// Command classes whose `earliest_legal` is memoizable per bank within
/// one `next_step` evaluation: ACT timing is row-independent and RD/WR
/// timing is column-independent (`DramDevice::earliest_from_state`).
const CLASS_ACT: usize = 0;
const CLASS_PRE: usize = 1;
const CLASS_RD: usize = 2;
const CLASS_WR: usize = 3;
const CLASSES: usize = 4;

/// The scheduler's cached state: the open-row mirror, the per-wake
/// memos and the cached verdicts.
///
/// Each controller owns exactly one, built in
/// [`MemoryController::with_mitigations`] and kept in sync by observing
/// every command the scheduler issues. Nothing outside the scheduler
/// can move row state behind it: the controller hands out its device
/// read-only (debug builds assert the mirror anyway).
#[derive(Debug, Clone)]
pub(super) struct SchedState {
    /// Bumped at every `next_step` entry; stamps invalidate the
    /// per-wake memos (`rank_quiesced` is `now`-dependent).
    epoch: u64,
    /// Per rank: bumped at every command issued on that rank — the only
    /// controller-side events that move the rank-local device timing
    /// state `earliest_from_state` reads (`recovery_complete` and hidden
    /// preventive refreshes touch PRAC / disturbance bookkeeping only).
    /// Stamps the cross-wake legality memo: a command on rank 0 leaves
    /// rank 1's cached bounds valid.
    rank_epoch: Vec<u64>,
    /// Bumped at every issued column command. The legality memo no
    /// longer needs it (column entries cache only the rank-local
    /// component); it feeds the section verdict's only-column-issues
    /// test ([`SchedState::sec_live`]).
    col_epoch: u64,
    /// Per flat bank: mirrored open row ([`CLOSED`] when none).
    open: Vec<u32>,
    /// Per rank: number of banks holding an open row.
    rank_open: Vec<u32>,
    /// Per flat bank: queue pre-scan results for the current wake.
    bank_has_hit: Vec<bool>,
    bank_has_conflict: Vec<bool>,
    /// Blocked flat banks for the current scan (reused allocation).
    blocked: Vec<usize>,
    /// Per rank: memoized `rank_quiesced` verdict.
    q_stamp: Vec<u64>,
    q_val: Vec<bool>,
    /// Per (flat bank × class): memoized *unclamped* earliest-issue
    /// instant (`earliest_legal` at `Time::ZERO`), stamped by the
    /// owning rank's [`SchedState::rank_epoch`] (plus
    /// [`SchedState::col_epoch`] for column classes) so it survives
    /// until a command actually invalidates it. The caller-facing value
    /// folds the channel-global bus terms back in per query.
    l_stamp: Vec<u64>,
    l_at: Vec<Time>,
    /// Per flat bank: owning rank, for the legality memo's stamps.
    flat_rank: Vec<u32>,
    /// Dense per-queue mirrors of each request's flat bank and row,
    /// parallel to `read_q` / `write_q` (indexed by [`QueueSel`] as 0 /
    /// 1). Folded lazily at scan time — queues only ever grow at the
    /// back between scans — and trimmed eagerly when a served request
    /// leaves mid-queue, so the FR-FCFS pre-scan walks two flat `u32`
    /// arrays instead of calling `flat_bank` per request per wake.
    q_flat: [Vec<u32>; 2],
    q_row: [Vec<u32>; 2],
    /// Cached [`DramDevice::rfm_banks`] result for the RFM currently at
    /// the front of the controller's reactive queue, so steady-state
    /// PRFM scans stop allocating a fresh bank list per wake.
    rfm_key: Option<(u32, RfmScope)>,
    rfm_flats: Vec<usize>,
    /// FastPath: a Wait-returning scan proves its verdict stays exact —
    /// same branch decisions, same folded wakes — until the earliest
    /// instant any time-triggered condition could flip ([`fp_bound`]),
    /// as long as no command issues ([`fp_stamp`]) and no request
    /// arrives ([`fp_rq`] / [`fp_wq`]). Within that window a re-service
    /// at `now < fp_wake` answers from cache without scanning, and a
    /// service at exactly `fp_wake` can issue the precomputed demand
    /// winner ([`fp_winner`]) without re-discovering it.
    fp_valid: bool,
    fp_wake: Time,
    fp_bound: Time,
    fp_stamp: u64,
    fp_rq: u32,
    fp_wq: u32,
    fp_winner: Option<(QueueSel, u32, Command)>,
    /// The demand queue the arming scan selected — the arrival fast
    /// path re-derives the selection and bails if it changed.
    fp_sel: QueueSel,
    /// Per-scan accumulator: min over the flip instants of every
    /// `now`-dependent branch condition the scan evaluated (refresh
    /// commit triggers, FR-RFM stacking guards, quiesce verdicts).
    fp_bound_acc: Time,
    /// Per-scan demand-winner precompute: the minimal `(at, !is_hit,
    /// arrival)` candidate — exactly the candidate the scan's comparator
    /// picks once `now` reaches `at` (first-in-queue-order on ties,
    /// matching the scan's strict `better` test and its early break,
    /// because arrivals are non-decreasing in queue order).
    fp_cand: Option<(Time, bool, Time, u32, Command)>,
    /// Section verdict: sections 1–5 of `next_step` never read the
    /// demand queues, so a full scan's section outcome — the branch
    /// decisions taken and the wakes folded before the demand stage —
    /// remains exact across request arrivals and servings. A later
    /// service inside the window re-runs only the demand stage against
    /// the carried section wake ([`MemoryController::next_step_demand`]).
    /// Validity: `sec_bound` (same flip-instant bound as the FastPath),
    /// `now < sec_wake` (sections take no action strictly before their
    /// own wake), the precondition flags re-checked directly, and the
    /// issue stamps: with `sec_pure` (no legality instants folded into
    /// the section wake) the verdict even survives column-command
    /// issues, which touch no row state, no refresh/maintenance state,
    /// and can never alert (alerts arise only in `close_row`).
    sec_valid: bool,
    sec_wake: Time,
    sec_pure: bool,
    sec_stamp: u64,
    sec_col: u64,
    sec_bound: Time,
}

impl SchedState {
    /// Builds a state synchronized to `mc`'s current device and queues.
    pub(super) fn for_controller(mc: &MemoryController) -> SchedState {
        let g = *mc.device.geometry();
        let banks = g.banks_per_channel() as usize;
        let ranks = g.ranks_per_channel() as usize;
        let mut s = SchedState {
            epoch: 1,
            rank_epoch: vec![1; ranks],
            col_epoch: 0,
            open: vec![CLOSED; banks],
            rank_open: vec![0; ranks],
            bank_has_hit: vec![false; banks],
            bank_has_conflict: vec![false; banks],
            blocked: Vec::new(),
            q_stamp: vec![0; ranks],
            q_val: vec![false; ranks],
            l_stamp: vec![0; banks * CLASSES],
            l_at: vec![Time::ZERO; banks * CLASSES],
            flat_rank: vec![0; banks],
            q_flat: [Vec::new(), Vec::new()],
            q_row: [Vec::new(), Vec::new()],
            rfm_key: None,
            rfm_flats: Vec::new(),
            fp_valid: false,
            fp_wake: Time::ZERO,
            fp_bound: Time::ZERO,
            fp_stamp: 0,
            fp_rq: 0,
            fp_wq: 0,
            fp_winner: None,
            fp_sel: QueueSel::Read,
            fp_bound_acc: Time::MAX,
            fp_cand: None,
            sec_valid: false,
            sec_wake: Time::ZERO,
            sec_pure: false,
            sec_stamp: 0,
            sec_col: 0,
            sec_bound: Time::ZERO,
        };
        s.sync_queue(QueueSel::Read, &mc.read_q, &g);
        s.sync_queue(QueueSel::Write, &mc.write_q, &g);
        for b in g.banks_in_channel(0) {
            s.flat_rank[g.flat_bank(b)] = b.rank;
            if let Some(row) = mc.device.open_row(b) {
                s.open[g.flat_bank(b)] = row;
                s.rank_open[b.rank as usize] += 1;
            }
        }
        s
    }

    /// Whether the mirror matches the device's actual row state.
    fn in_sync(&self, device: &DramDevice) -> bool {
        let g = device.geometry();
        g.banks_in_channel(0).all(|b| {
            let mirrored = self.open[g.flat_bank(b)];
            device.open_row(b) == (mirrored != CLOSED).then_some(mirrored)
        })
    }

    /// Folds an issued command into the mirror. Only ACT/PRE/PREab move
    /// row state; REF/RFM blocking windows and column commands do not
    /// (`DramDevice::issue`).
    fn note_issue(&mut self, cmd: &Command, g: &Geometry) {
        // `DramDevice::issue` mutates per-bank / per-rank timing state
        // only on the command's own rank; the channel-global movement
        // (`cmd_free`, `last_col`, `data_free`) is read back from the
        // device per legality query. Everything else survives.
        let rank = match *cmd {
            Command::Activate { bank, .. }
            | Command::Precharge { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. } => bank.rank,
            Command::PrechargeAll { rank, .. }
            | Command::Refresh { rank, .. }
            | Command::Rfm { rank, .. } => rank,
        };
        self.rank_epoch[rank as usize] += 1;
        if cmd.is_column() {
            self.col_epoch += 1;
        }
        match *cmd {
            Command::Activate { bank, row } => {
                let flat = g.flat_bank(bank);
                debug_assert_eq!(self.open[flat], CLOSED, "ACT on open bank");
                self.open[flat] = row;
                self.rank_open[bank.rank as usize] += 1;
            }
            Command::Precharge { bank } => {
                let flat = g.flat_bank(bank);
                if self.open[flat] != CLOSED {
                    self.open[flat] = CLOSED;
                    self.rank_open[bank.rank as usize] -= 1;
                }
            }
            Command::PrechargeAll { rank, .. } => {
                for b in g.banks_in_channel(0).filter(|b| b.rank == rank) {
                    self.open[g.flat_bank(b)] = CLOSED;
                }
                self.rank_open[rank as usize] = 0;
            }
            _ => {}
        }
    }

    /// Queue index for the per-queue mirrors.
    fn qi(sel: QueueSel) -> usize {
        match sel {
            QueueSel::Read => 0,
            QueueSel::Write => 1,
        }
    }

    /// Folds queue entries appended since the last scan into the flat /
    /// row mirror. Queues only grow at the back between scans (enqueues
    /// and retries `push_back`; the sole removal is a served request,
    /// mirrored eagerly by [`SchedState::note_served`]), so catching up
    /// is a walk of the new tail — each request pays `flat_bank` once
    /// per lifetime instead of once per wake.
    fn sync_queue(&mut self, sel: QueueSel, q: &VecDeque<MemRequest>, g: &Geometry) {
        let k = SchedState::qi(sel);
        let flats = &mut self.q_flat[k];
        let rows = &mut self.q_row[k];
        debug_assert!(flats.len() <= q.len(), "queue mirror ahead of queue");
        if flats.len() < q.len() {
            for req in q.range(flats.len()..) {
                flats.push(g.flat_bank(req.addr.bank) as u32);
                rows.push(req.addr.row);
            }
        }
        debug_assert!(
            flats
                .iter()
                .zip(q.iter())
                .all(|(&f, r)| f == g.flat_bank(r.addr.bank) as u32),
            "queue mirror drifted"
        );
    }

    /// Removes a served request from the queue mirror, matching the
    /// `q.remove(idx)` the controller performs for column commands.
    fn note_served(&mut self, sel: QueueSel, idx: usize) {
        let k = SchedState::qi(sel);
        self.q_flat[k].remove(idx);
        self.q_row[k].remove(idx);
    }

    /// Refreshes the cached flat-bank list for the RFM at the front of
    /// the reactive queue, if it changed since the last scan.
    fn sync_rfm(&mut self, device: &DramDevice, rank: u32, scope: RfmScope) {
        if self.rfm_key != Some((rank, scope)) {
            self.rfm_key = Some((rank, scope));
            self.rfm_flats = device.rfm_banks(rank, scope);
        }
    }

    /// Total issued-command count, the FastPath's state-change stamp
    /// (every issue bumps exactly one rank epoch).
    fn issue_stamp(&self) -> u64 {
        self.rank_epoch.iter().sum()
    }

    /// Whether the FastPath verdict still binds `mc` at `now`.
    fn fp_live(&self, mc: &MemoryController, now: Time) -> bool {
        self.fp_valid
            && now < self.fp_bound
            && self.fp_stamp == self.issue_stamp()
            && mc.read_q.len() as u32 == self.fp_rq
            && mc.write_q.len() as u32 == self.fp_wq
    }

    /// Whether the carried section verdict still binds `mc` at `now`,
    /// allowing the demand-only reduced scan. The preconditions that
    /// could arise without an issue (a BlockHammer throttle is inserted
    /// on activation, but re-checking is cheap and future-proof) are
    /// tested directly; everything else moves only through issued
    /// commands, covered by the stamp test: unchanged stamp, or — for a
    /// pure verdict — only column issues since the verdict was recorded.
    fn sec_live(&self, mc: &MemoryController, now: Time) -> bool {
        if !self.sec_valid || now >= self.sec_bound || now >= self.sec_wake {
            return false;
        }
        if mc.abo.is_some()
            || !mc.rfm_queue.is_empty()
            || !mc.para_queue.is_empty()
            || !mc.throttled.is_empty()
        {
            return false;
        }
        let issued = self.issue_stamp() - self.sec_stamp;
        issued == 0 || (self.sec_pure && issued == self.col_epoch - self.sec_col)
    }

    /// Memoized `rank_quiesced` for the current wake. Inlines
    /// `MemoryController::rank_quiesced` so a not-quiesced verdict can
    /// record the instant it would flip (`deadline − frrfm_guard`) into
    /// the FastPath bound; a quiesced verdict is monotone under an
    /// unchanged issue stamp and needs no bound.
    fn quiesced(&mut self, mc: &MemoryController, rank: u32, now: Time) -> bool {
        let r = rank as usize;
        if self.q_stamp[r] != self.epoch {
            self.q_stamp[r] = self.epoch;
            let mut v = mc.ref_pending[r] > 0;
            if !v {
                if let Some(d) = mc.defense.next_deadline(rank, now) {
                    if now + mc.cfg.frrfm_guard >= d {
                        v = true;
                    } else {
                        self.fp_bound_acc = self.fp_bound_acc.min(d - mc.cfg.frrfm_guard);
                    }
                }
            }
            debug_assert_eq!(v, mc.rank_quiesced(rank, now), "quiesce memo drifted");
            self.q_val[r] = v;
        }
        self.q_val[r]
    }

    /// Memoized `earliest_legal` for `cmd` of `class` on `flat`.
    ///
    /// Column classes memoize only the rank-local component
    /// ([`DramDevice::earliest_column_rank_part`]) and re-fold the
    /// channel-global bus terms per query, so a column issue anywhere
    /// on the channel leaves every cached RD/WR bound valid — only
    /// commands on the bank's own rank invalidate. Row classes memoize
    /// the full unclamped bound; folding the fill-time `cmd_free` is
    /// sound because `cmd_free` is monotone and re-clamped per query.
    fn legal(
        &mut self,
        device: &DramDevice,
        flat: usize,
        class: usize,
        cmd: &Command,
        now: Time,
    ) -> Time {
        let i = flat * CLASSES + class;
        let stamp = self.rank_epoch[self.flat_rank[flat] as usize];
        let (cmd_free, last_col, data_free) = device.bus_state();
        let at = if class == CLASS_RD || class == CLASS_WR {
            let bank = match *cmd {
                Command::Read { bank, .. } | Command::Write { bank, .. } => bank,
                _ => unreachable!("column class carries a column command"),
            };
            if self.l_stamp[i] != stamp {
                self.l_stamp[i] = stamp;
                self.l_at[i] = device.earliest_column_rank_part(bank, class == CLASS_RD);
            }
            let t = device.timing();
            let mut at = self.l_at[i].max(cmd_free);
            if let Some((last, bg)) = last_col {
                let ccd = if bg == bank.bank_group {
                    t.t_ccd_l
                } else {
                    t.t_ccd_s
                };
                at = at.max(last + ccd);
            }
            let lat = if class == CLASS_RD { t.t_cl } else { t.t_cwl };
            at = at.max(Time::ZERO + data_free.saturating_since(Time::ZERO + lat));
            at.max(now)
        } else {
            if self.l_stamp[i] != stamp {
                self.l_stamp[i] = stamp;
                self.l_at[i] = device.earliest_legal(cmd, Time::ZERO);
            }
            self.l_at[i].max(cmd_free).max(now)
        };
        debug_assert_eq!(at, device.earliest_legal(cmd, now), "legality memo drifted");
        at
    }
}

/// Outcome of [`MemoryController::arrival_fast`].
enum ArrivalFast {
    /// The verdict absorbed the arrival in place; wait until the
    /// (possibly earlier) cached wake.
    Wait(Time),
    /// The newcomer was the unique issueable-now candidate and was
    /// issued; fall into the normal loop for the post-issue scan.
    Issued,
    /// Not a case the fast path can absorb — run the scan.
    Bail,
}

/// Step equality for the debug shadow checks (`Step` intentionally does
/// not implement `PartialEq`; the scheduler never compares steps).
#[cfg(debug_assertions)]
fn step_eq(a: &Step, b: &Step) -> bool {
    match (a, b) {
        (Step::Issue(ca, sa), Step::Issue(cb, sb)) => ca == cb && sa == sb,
        (Step::Again, Step::Again) => true,
        (Step::Wait(wa), Step::Wait(wb)) => wa == wb,
        _ => false,
    }
}

impl MemoryController {
    /// One scheduler wake at `now` against the cached state `s`
    /// (the body of [`MemoryController::service`], which lends it the
    /// controller's own [`SchedState`]).
    pub(super) fn service_with(&mut self, now: Time, s: &mut SchedState) -> Time {
        debug_assert!(s.in_sync(&self.device), "open-row mirror drifted");
        self.stats.service_calls += 1;
        if s.fp_live(self, now) {
            if now < s.fp_wake {
                // A spurious kick inside the proven-quiet window: the
                // full scan would re-derive exactly the cached wake.
                #[cfg(debug_assertions)]
                {
                    let mut shadow = s.clone();
                    self.update_modes(now);
                    match self.next_step(now, &mut shadow) {
                        Step::Wait(w) if w == s.fp_wake => {}
                        other => panic!("FastPath wait {} diverged from scan {other:?}", s.fp_wake),
                    }
                }
                return s.fp_wake;
            }
            if now == s.fp_wake {
                if let Some((sel, idx, cmd)) = s.fp_winner {
                    // The wake landed on the precomputed demand winner:
                    // issue it without re-discovering it, then fall into
                    // the normal loop for the post-issue scan.
                    let served = cmd.is_column().then_some((sel, idx as usize));
                    #[cfg(debug_assertions)]
                    {
                        let mut shadow = s.clone();
                        self.update_modes(now);
                        match self.next_step(now, &mut shadow) {
                            Step::Issue(c, s) if c == cmd && s == served => {}
                            other => panic!("FastPath winner {cmd:?} diverged from scan {other:?}"),
                        }
                    }
                    s.note_issue(&cmd, self.device.geometry());
                    if let Some((sel, idx)) = served {
                        s.note_served(sel, idx);
                    }
                    self.issue(cmd, now, served);
                }
            }
        } else {
            match self.arrival_fast(now, s) {
                ArrivalFast::Wait(w) => return w,
                ArrivalFast::Issued | ArrivalFast::Bail => {}
            }
        }
        loop {
            self.update_modes(now);
            let step = if s.sec_live(self, now) {
                self.next_step_demand(now, s)
            } else {
                self.next_step(now, s)
            };
            match step {
                Step::Issue(cmd, served) => {
                    s.note_issue(&cmd, self.device.geometry());
                    if let Some((sel, idx)) = served {
                        s.note_served(sel, idx);
                    }
                    self.issue(cmd, now, served);
                }
                Step::Again => {}
                Step::Wait(t) => {
                    assert!(
                        t > now,
                        "scheduler wake {t} not strictly after now {now}: \
                         a deferral failed to register its flip time"
                    );
                    return t;
                }
            }
        }
    }

    /// O(1) absorption of a single request arrival into a live FastPath
    /// verdict, instead of a full (or reduced) rescan.
    ///
    /// Soundness: a single arrival changes nothing a Wait-returning scan
    /// read except the tail of one demand queue — sections 1–5 never
    /// touch the queues (the carried section verdict), and the demand
    /// stage is a pure min-fold over candidates, so one new entry either
    /// leaves the verdict untouched (non-selected queue, or a skipped
    /// candidate) or folds in as exactly one new candidate. The newcomer
    /// interacts with existing candidates only through the per-bank
    /// hit/conflict pre-scan — bailed out when an earlier same-bank
    /// entry exists — and through the comparator, where `at ≥ fp_wake >
    /// now` for every cached candidate pins the outcome.
    fn arrival_fast(&mut self, now: Time, s: &mut SchedState) -> ArrivalFast {
        if !s.fp_valid
            || now >= s.fp_bound
            || now >= s.fp_wake
            || s.fp_stamp != s.issue_stamp()
            || !s.sec_live(self, now)
        {
            return ArrivalFast::Bail;
        }
        let rq = self.read_q.len() as u32;
        let wq = self.write_q.len() as u32;
        let arr_sel = if rq == s.fp_rq + 1 && wq == s.fp_wq {
            QueueSel::Read
        } else if wq == s.fp_wq + 1 && rq == s.fp_rq {
            QueueSel::Write
        } else {
            // Multi-arrival (shrinks are impossible without an issue).
            return ArrivalFast::Bail;
        };
        // The reference loop runs `update_modes` before every scan; in
        // the proven window its only live effect is the write-drain
        // hysteresis, which the selection re-derivation below observes.
        // Re-running it in the fallback loop after a bail is idempotent.
        self.update_modes(now);
        let sel = if self.draining || (self.read_q.is_empty() && !self.write_q.is_empty()) {
            QueueSel::Write
        } else {
            QueueSel::Read
        };
        if sel != s.fp_sel {
            return ArrivalFast::Bail;
        }
        #[cfg(debug_assertions)]
        let shadow = s.clone();
        if arr_sel != sel {
            // The arrival landed in the queue the verdict never reads:
            // every branch decision and every fold is untouched.
            s.fp_rq = rq;
            s.fp_wq = wq;
            #[cfg(debug_assertions)]
            {
                let mut sh = shadow;
                match self.next_step(now, &mut sh) {
                    Step::Wait(w) if w == s.fp_wake => {}
                    other => panic!(
                        "arrival fast wait {} diverged from scan {other:?}",
                        s.fp_wake
                    ),
                }
            }
            return ArrivalFast::Wait(s.fp_wake);
        }
        let g = *self.device.geometry();
        let q = match sel {
            QueueSel::Read => &self.read_q,
            QueueSel::Write => &self.write_q,
        };
        let k = SchedState::qi(sel);
        s.sync_queue(sel, q, &g);
        let idx = q.len() - 1;
        let flat32 = s.q_flat[k][idx];
        if s.q_flat[k][..idx].contains(&flat32) {
            // An earlier same-bank entry: the newcomer can flip its
            // hit/conflict pre-scan skips (and vice versa) — rescan.
            return ArrivalFast::Bail;
        }
        let flat = flat32 as usize;
        let req = &q[idx];
        let bank = req.addr.bank;
        let row = req.addr.row;
        let col = req.addr.col;
        let kind = req.kind;
        let arrival = req.arrival;
        if self.rank_quiesced(bank.rank, now) {
            // Skipped candidate, verdict unchanged: a quiesced verdict
            // is monotone under the unchanged issue stamp (see
            // `SchedState::quiesced`).
            s.fp_rq = rq;
            s.fp_wq = wq;
            #[cfg(debug_assertions)]
            {
                let mut sh = shadow;
                match self.next_step(now, &mut sh) {
                    Step::Wait(w) if w == s.fp_wake => {}
                    other => panic!(
                        "arrival fast wait {} diverged from scan {other:?}",
                        s.fp_wake
                    ),
                }
            }
            return ArrivalFast::Wait(s.fp_wake);
        }
        if let Some(d) = self.defense.next_deadline(bank.rank, now) {
            // The scan records every not-quiesced rank's flip instant;
            // mirror it for the newcomer's rank, which may not have had
            // a candidate in the arming scan.
            let flip = d - self.cfg.frrfm_guard;
            s.fp_bound = s.fp_bound.min(flip);
            s.sec_bound = s.sec_bound.min(flip);
        }
        let open = s.open[flat];
        let (cmd, is_hit, class) = if open == CLOSED {
            (Command::Activate { bank, row }, false, CLASS_ACT)
        } else if open == row {
            match kind {
                AccessKind::Read => (Command::Read { bank, col }, true, CLASS_RD),
                AccessKind::Write => (Command::Write { bank, col }, true, CLASS_WR),
            }
        } else {
            // No same-bank entry ⇒ `bank_has_hit` is false: the scan
            // would take the conflict arm without skipping.
            (Command::Precharge { bank }, false, CLASS_PRE)
        };
        let at = s.legal(&self.device, flat, class, &cmd, now);
        if at <= now {
            // Every cached candidate waits (`at ≥ fp_wake > now`), so
            // the newcomer is the unique issueable-now candidate and
            // wins the comparator outright.
            let served = cmd.is_column().then_some((sel, idx));
            #[cfg(debug_assertions)]
            {
                let mut sh = shadow;
                match self.next_step(now, &mut sh) {
                    Step::Issue(c, sv) if c == cmd && sv == served => {}
                    other => panic!("arrival fast issue {cmd:?} diverged from scan {other:?}"),
                }
            }
            s.note_issue(&cmd, &g);
            if let Some((ssel, sidx)) = served {
                s.note_served(ssel, sidx);
            }
            self.issue(cmd, now, served);
            return ArrivalFast::Issued;
        }
        // Fold the newcomer into the cached verdict: candidate min,
        // wake, winner. Strict `<` keeps the earlier-in-queue candidate
        // on ties, matching the scan (the newcomer is last in order).
        let key = (at, !is_hit, arrival);
        if match s.fp_cand {
            None => true,
            Some((a, h, arr, _, _)) => key < (a, h, arr),
        } {
            s.fp_cand = Some((at, !is_hit, arrival, idx as u32, cmd));
        }
        s.fp_wake = s.fp_wake.min(at);
        s.fp_winner = match s.fp_cand {
            Some((cat, _, _, cidx, ccmd))
                if cat == s.fp_wake && cat < s.sec_wake && cat < s.fp_bound =>
            {
                Some((sel, cidx, ccmd))
            }
            _ => None,
        };
        s.fp_rq = rq;
        s.fp_wq = wq;
        #[cfg(debug_assertions)]
        {
            let mut sh = shadow;
            match self.next_step(now, &mut sh) {
                Step::Wait(w) if w == s.fp_wake => {}
                other => panic!(
                    "arrival fast fold {} diverged from scan {other:?}",
                    s.fp_wake
                ),
            }
        }
        ArrivalFast::Wait(s.fp_wake)
    }

    /// The full scan: every section in priority order, against the
    /// mirror and memos. Decision-identical to the uncached reference
    /// scan the unit tests keep; every divergence is a bug the
    /// differential test and the identity tests exist to catch.
    fn next_step(&mut self, now: Time, s: &mut SchedState) -> Step {
        s.epoch += 1;
        s.fp_valid = false;
        s.fp_bound_acc = Time::MAX;
        s.fp_cand = None;
        // FastPath preconditions: with these quiet, `update_modes` is a
        // provable no-op until the first accumulated flip instant, and
        // the only actors are the refresh schedule, FR-RFM maintenance,
        // and the demand queues — whose deferrals all fold absolute
        // instants into `wake` / `fp_bound_acc` below.
        let mut fp_ok = self.abo.is_none()
            && self.throttled.is_empty()
            && self.rfm_queue.is_empty()
            && self.para_queue.is_empty()
            && self.cfg.row_policy != RowPolicy::Closed;
        // The section verdict is "pure" while no section folded a
        // legality instant (`issue_or_wake`) into `wake`: pure folds are
        // absolute schedule times, indifferent to column issues.
        let mut sec_pure = true;
        let t = *self.device.timing();
        let mut wake = Time::MAX;

        // --- 1. ABO back-off protocol -----------------------------------
        if let Some(abo) = self.abo {
            match abo.phase {
                AboPhase::Window => {
                    wake = wake.min(abo.recover_at);
                }
                AboPhase::Recover => {
                    let scope = self
                        .device
                        .prac_config()
                        .map(|p| p.scope)
                        .unwrap_or(AlertScope::Channel);
                    let rank = abo.alert.bank.rank;
                    let alert_flat = self.device.geometry().flat_bank(abo.alert.bank);
                    let close_cmd = match scope {
                        AlertScope::Channel => (s.rank_open[rank as usize] > 0)
                            .then_some(Command::PrechargeAll { channel: 0, rank }),
                        AlertScope::Bank => {
                            (s.open[alert_flat] != CLOSED).then_some(Command::Precharge {
                                bank: abo.alert.bank,
                            })
                        }
                    };
                    if let Some(cmd) = close_cmd {
                        sec_pure = false;
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
                        sec_pure = false;
                        if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                            return step;
                        }
                    } else {
                        self.device.recovery_complete(abo.last_rfm_end);
                        self.abo = None;
                        self.stats.backoffs += 1;
                        return Step::Again;
                    }
                    if scope == AlertScope::Channel {
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
                wake = wake.min(due);
            }
            if pending == 0 {
                if now >= due {
                    // The commit/postpone machinery is live right now:
                    // its `clear_of_rfm` gap test re-evaluates against
                    // wall-clock every call, so no quiet window exists.
                    fp_ok = false;
                    if self.abo.is_none() {
                        let settle_end = self.rfm_end[rank as usize] + self.cfg.frrfm_guard * 2;
                        if settle_end > now {
                            wake = wake.min(settle_end);
                        }
                        let timeout = due + t.t_refi / 2;
                        if timeout > now {
                            wake = wake.min(timeout);
                        }
                    }
                } else {
                    // `update_modes` commits or postpones at `due`.
                    s.fp_bound_acc = s.fp_bound_acc.min(due);
                }
                continue;
            }
            let next_deadline = self.defense.next_deadline(rank, now);
            if let Some(d) = next_deadline {
                // `next_deadline` itself advances when `now` crosses it.
                s.fp_bound_acc = s.fp_bound_acc.min(d);
            }
            if let (Some(deadline), Some(period)) = (next_deadline, self.maint_period) {
                let fits_between_rfms = t.t_rfm + t.t_rfc + t.t_cmd * 2 <= period;
                if fits_between_rfms {
                    if now + t.t_rfc + t.t_cmd > deadline {
                        if deadline > now {
                            wake = wake.min(deadline);
                        }
                        continue;
                    }
                    // The stacking guard first flips strictly after
                    // `deadline − (tRFC + tCMD)`.
                    s.fp_bound_acc = s.fp_bound_acc.min(deadline - t.t_rfc - t.t_cmd);
                }
            }
            let cmd = if s.rank_open[rank as usize] > 0 {
                Command::PrechargeAll { channel: 0, rank }
            } else {
                Command::Refresh { channel: 0, rank }
            };
            sec_pure = false;
            if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                return step;
            }
        }

        // --- 3. Scheduled maintenance (FR-RFM fixed-rate RFMs) ----------
        for rank in 0..self.ref_due.len() as u32 {
            if let Some(m) = self.defense.next_maintenance(rank) {
                let deadline = m.due;
                let close_at = deadline - t.t_rp - t.t_cmd;
                if now < close_at {
                    wake = wake.min(close_at);
                    continue;
                }
                if s.rank_open[rank as usize] > 0 {
                    let cmd = Command::PrechargeAll { channel: 0, rank };
                    sec_pure = false;
                    if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                        return step;
                    }
                } else if now < deadline {
                    wake = wake.min(deadline);
                } else {
                    let cmd = Command::Rfm {
                        channel: 0,
                        rank,
                        scope: m.scope,
                    };
                    sec_pure = false;
                    if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                        return step;
                    }
                }
            }
        }

        // --- 4. Reactive RFMs (PRFM) -------------------------------------
        if let Some(&(rank, scope)) = self.rfm_queue.front() {
            s.sync_rfm(&self.device, rank, scope);
            let open_flat = s.rfm_flats.iter().copied().find(|&f| s.open[f] != CLOSED);
            let cmd = if let Some(f) = open_flat {
                Command::Precharge {
                    bank: self.device.geometry().bank_from_flat(0, f),
                }
            } else {
                Command::Rfm {
                    channel: 0,
                    rank,
                    scope,
                }
            };
            sec_pure = false;
            if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                return step;
            }
        }

        // --- 5. PARA victim refreshes ------------------------------------
        if let Some(job) = self.para_queue.front().copied() {
            let flat = self.device.geometry().flat_bank(job.bank);
            let is_open = s.open[flat] != CLOSED;
            let cmd = match (job.activated, is_open) {
                (false, true) => Command::Precharge { bank: job.bank },
                (false, false) => Command::Activate {
                    bank: job.bank,
                    row: job.victim,
                },
                (true, true) => Command::Precharge { bank: job.bank },
                (true, false) => {
                    self.para_queue.pop_front();
                    return Step::Again;
                }
            };
            sec_pure = false;
            if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                return step;
            }
        }

        // --- 5b. Strictly closed-page policy ----------------------------
        if self.cfg.row_policy == RowPolicy::Closed && !self.abo_channel_stall() {
            let g = *self.device.geometry();
            for bank in g.banks_in_channel(0) {
                let flat = g.flat_bank(bank);
                let open_row = s.open[flat];
                if open_row == CLOSED {
                    continue;
                }
                let (srow, served) = self.streak[flat];
                if srow != open_row || served == 0 {
                    continue;
                }
                let cmd = Command::Precharge { bank };
                sec_pure = false;
                if let Some(step) = self.issue_or_wake(cmd, now, &mut wake) {
                    return step;
                }
            }
        }

        // --- 6. Demand requests (FR-FCFS with column cap) ----------------
        let sec_wake = wake;
        let mut demand_sel = None;
        if !self.abo_channel_stall() {
            let sel = if self.draining || (self.read_q.is_empty() && !self.write_q.is_empty()) {
                QueueSel::Write
            } else {
                QueueSel::Read
            };
            let (step_wake, step) = self.schedule_demand(sel, now, s);
            if let Some(step) = step {
                return step;
            }
            wake = wake.min(step_wake);
            demand_sel = Some(sel);
        }

        if fp_ok {
            // This Wait verdict — every branch decision and folded wake —
            // stays exact until `fp_bound_acc`, the next issue, or the
            // next arrival. The demand winner is cacheable only when it
            // strictly precedes every section wake and every flip: on a
            // tie the sections act first at the shared instant.
            s.fp_valid = true;
            s.fp_wake = wake;
            s.fp_bound = s.fp_bound_acc;
            s.fp_stamp = s.issue_stamp();
            s.fp_rq = self.read_q.len() as u32;
            s.fp_wq = self.write_q.len() as u32;
            s.fp_winner = match (demand_sel, s.fp_cand) {
                (Some(sel), Some((at, _, _, idx, cmd)))
                    if at == wake && at < sec_wake && at < s.fp_bound =>
                {
                    Some((sel, idx, cmd))
                }
                _ => None,
            };
            if let Some(sel) = demand_sel {
                s.fp_sel = sel;
            }
            s.sec_valid = true;
            s.sec_wake = sec_wake;
            s.sec_pure = sec_pure;
            s.sec_stamp = s.fp_stamp;
            s.sec_col = s.col_epoch;
            s.sec_bound = s.fp_bound;
        }
        Step::Wait(wake)
    }

    /// The demand-only reduced scan: re-runs stage 6 of
    /// [`MemoryController::next_step`] against the carried section
    /// verdict, skipping sections 1–5 entirely. Sound exactly when
    /// [`SchedState::sec_live`] holds: the sections read no demand
    /// queue, every branch they took is pinned by `sec_bound` /
    /// `sec_wake` / the stamp rule, and every wake they folded is either
    /// an absolute schedule instant (pure) or additionally protected by
    /// an unchanged issue stamp. In debug builds the full scan shadows
    /// every reduced verdict.
    fn next_step_demand(&mut self, now: Time, s: &mut SchedState) -> Step {
        #[cfg(debug_assertions)]
        let mut shadow = s.clone();
        s.epoch += 1;
        s.fp_valid = false;
        s.fp_bound_acc = s.sec_bound;
        s.fp_cand = None;
        let mut wake = s.sec_wake;
        // `abo_channel_stall` is false: `sec_live` checked `abo.is_none()`.
        let sel = if self.draining || (self.read_q.is_empty() && !self.write_q.is_empty()) {
            QueueSel::Write
        } else {
            QueueSel::Read
        };
        let (step_wake, step) = self.schedule_demand(sel, now, s);
        let step = match step {
            Some(step) => step,
            None => {
                wake = wake.min(step_wake);
                // Re-arm: the section half of the verdict carries over
                // verbatim (the proof composes transitively), the demand
                // half is freshly computed.
                s.fp_valid = true;
                s.fp_wake = wake;
                s.fp_bound = s.fp_bound_acc;
                s.fp_stamp = s.issue_stamp();
                s.fp_rq = self.read_q.len() as u32;
                s.fp_wq = self.write_q.len() as u32;
                s.fp_winner = match s.fp_cand {
                    Some((at, _, _, idx, cmd))
                        if at == wake && at < s.sec_wake && at < s.fp_bound =>
                    {
                        Some((sel, idx, cmd))
                    }
                    _ => None,
                };
                s.fp_sel = sel;
                s.sec_stamp = s.fp_stamp;
                s.sec_col = s.col_epoch;
                s.sec_bound = s.fp_bound;
                Step::Wait(wake)
            }
        };
        #[cfg(debug_assertions)]
        {
            let full = self.next_step(now, &mut shadow);
            assert!(
                step_eq(&step, &full),
                "reduced scan {step:?} diverged from full scan {full:?}"
            );
        }
        step
    }

    /// FR-FCFS selection over one queue against the mirror: the
    /// pre-scan in persistent buffers, memoized quiesce/legality queries,
    /// and an early exit once the winner is decided. Returns (wake,
    /// chosen step).
    fn schedule_demand(
        &self,
        sel: QueueSel,
        now: Time,
        s: &mut SchedState,
    ) -> (Time, Option<Step>) {
        let q = match sel {
            QueueSel::Read => &self.read_q,
            QueueSel::Write => &self.write_q,
        };
        let g = self.device.geometry();
        let k = SchedState::qi(sel);
        s.sync_queue(sel, q, g);
        let mut wake = Time::MAX;

        s.blocked.clear();
        if let Some(&(rank, scope)) = self.rfm_queue.front() {
            s.sync_rfm(&self.device, rank, scope);
            let SchedState {
                blocked, rfm_flats, ..
            } = s;
            blocked.extend_from_slice(rfm_flats);
        }
        if let Some(abo) = &self.abo {
            if abo.phase == AboPhase::Recover
                && self.device.prac_config().map(|p| p.scope) == Some(AlertScope::Bank)
            {
                s.blocked.push(g.flat_bank(abo.alert.bank));
            }
        }
        if let Some(job) = self.para_queue.front() {
            s.blocked.push(g.flat_bank(job.bank));
        }

        {
            let SchedState {
                q_flat,
                q_row,
                bank_has_hit,
                bank_has_conflict,
                open,
                ..
            } = s;
            bank_has_hit.fill(false);
            bank_has_conflict.fill(false);
            for (&flat, &row) in q_flat[k].iter().zip(q_row[k].iter()) {
                let flat = flat as usize;
                let o = open[flat];
                if o != CLOSED {
                    if o == row {
                        bank_has_hit[flat] = true;
                    } else {
                        bank_has_conflict[flat] = true;
                    }
                }
            }
        }

        let have_throttles = !self.throttled.is_empty();
        let mut best: Option<(bool, Time, Time, usize, Command)> = None;
        for (idx, req) in q.iter().enumerate() {
            let bank = req.addr.bank;
            let flat = s.q_flat[k][idx] as usize;
            if s.blocked.contains(&flat) || s.quiesced(self, bank.rank, now) {
                continue;
            }
            let open = s.open[flat];
            if have_throttles {
                if let Some(&until) = self.throttled.get(&(flat, req.addr.row)) {
                    if until > now && open != req.addr.row {
                        wake = wake.min(until);
                        continue;
                    }
                }
            }
            let (cmd, is_hit, class) = if open == CLOSED {
                (
                    Command::Activate {
                        bank,
                        row: req.addr.row,
                    },
                    false,
                    CLASS_ACT,
                )
            } else if open == req.addr.row {
                match req.kind {
                    AccessKind::Read => (
                        Command::Read {
                            bank,
                            col: req.addr.col,
                        },
                        true,
                        CLASS_RD,
                    ),
                    AccessKind::Write => (
                        Command::Write {
                            bank,
                            col: req.addr.col,
                        },
                        true,
                        CLASS_WR,
                    ),
                }
            } else {
                let (srow, scount) = self.streak[flat];
                let capped = srow == open && scount >= self.cfg.col_cap;
                if s.bank_has_hit[flat] && !capped {
                    continue;
                }
                (Command::Precharge { bank }, false, CLASS_PRE)
            };
            if is_hit {
                let (srow, scount) = self.streak[flat];
                if srow == req.addr.row && scount >= self.cfg.col_cap && s.bank_has_conflict[flat] {
                    continue;
                }
            }
            let at = s.legal(&self.device, flat, class, &cmd, now);
            // FastPath winner precompute: the minimal `(at, !is_hit,
            // arrival)` candidate is the one the comparator below picks
            // once `now` reaches `at` (strict `<` keeps the first in
            // queue order, matching the scan's tie-breaks).
            let fp_key = (at, !is_hit, req.arrival);
            if match s.fp_cand {
                None => true,
                Some((a, h, arr, _, _)) => fp_key < (a, h, arr),
            } {
                s.fp_cand = Some((at, !is_hit, req.arrival, idx as u32, cmd));
            }
            let key = (!is_hit, at, req.arrival, idx, cmd);
            let better = match &best {
                None => true,
                Some(b) => {
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
            // An issueable-now row hit is final: a later candidate only
            // wins by being an issueable-now hit with a strictly earlier
            // arrival, and queue order keeps arrivals non-decreasing (the
            // caller contract). The wakes later candidates would have
            // folded are irrelevant — on `Step::Issue` the wake is
            // discarded and the service loop re-evaluates.
            if is_hit && at <= now {
                break;
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
