//! DRAMA row-buffer covert channel (Pessl et al., USENIX Security'16) —
//! the prior-work baseline LeakyHammer is compared against in §9.
//!
//! DRAMA transmits by modulating *row-buffer state*: sender and receiver
//! colocate in one bank; the receiver repeatedly accesses its row and
//! times the access. If the sender is active (accessing a different row of
//! the same bank), the receiver sees row-buffer conflicts; if idle, row
//! hits. The receiver decodes by comparing the fraction of
//! conflict-latency accesses in the window against a threshold.
//!
//! Unlike LeakyHammer, DRAMA requires same-bank colocation (Table 3) and
//! its signal (one conflict, tens of ns) is ~10× smaller than a PRAC
//! back-off.

use core::any::Any;

use lh_dram::{Span, Time};
use lh_sim::{MemAccess, Process, ProcessStep};

/// DRAMA receiver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramaConfig {
    /// The receiver's probe row address.
    pub row_addr: u64,
    /// Window length (DRAMA windows can be much shorter than
    /// LeakyHammer's — a single conflict suffices).
    pub window: Span,
    /// Transmission start.
    pub start: Time,
    /// Number of windows.
    pub n_windows: usize,
    /// Loop overhead.
    pub think: Span,
    /// Latency above which an access counts as a conflict.
    pub conflict_threshold: Span,
}

/// The DRAMA receiver: counts conflict-class accesses per window.
#[derive(Debug, Clone)]
pub struct DramaReceiver {
    cfg: DramaConfig,
    conflicts: Vec<u32>,
    accesses: Vec<u32>,
    last: Option<Time>,
}

impl DramaReceiver {
    /// Creates a receiver.
    pub fn new(cfg: DramaConfig) -> DramaReceiver {
        DramaReceiver {
            conflicts: vec![0; cfg.n_windows],
            accesses: vec![0; cfg.n_windows],
            cfg,
            last: None,
        }
    }

    /// Conflict counts per window.
    pub fn conflicts(&self) -> &[u32] {
        &self.conflicts
    }

    /// Decodes: bit = 1 iff at least `frac` of the window's accesses were
    /// conflicts.
    pub fn decode(&self, frac: f64) -> Vec<u8> {
        self.conflicts
            .iter()
            .zip(&self.accesses)
            .map(|(&c, &a)| (a > 0 && c as f64 / a as f64 >= frac) as u8)
            .collect()
    }
}

impl Process for DramaReceiver {
    fn step(&mut self, now: Time) -> ProcessStep {
        if now < self.cfg.start {
            self.last = None;
            return ProcessStep::SleepUntil(self.cfg.start);
        }
        if let Some(last) = self.last.take() {
            let w = ((last - self.cfg.start) / self.cfg.window) as usize;
            if w < self.cfg.n_windows {
                self.accesses[w] += 1;
                if now - last >= self.cfg.conflict_threshold {
                    self.conflicts[w] += 1;
                }
            }
        }
        let w = ((now - self.cfg.start) / self.cfg.window) as usize;
        if w >= self.cfg.n_windows {
            return ProcessStep::Halt;
        }
        self.last = Some(now);
        ProcessStep::Access(MemAccess::flushed_load(self.cfg.row_addr, self.cfg.think))
    }

    fn label(&self) -> String {
        "drama-rx".to_owned()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The DRAMA sender: accesses its conflicting row during 1-windows.
#[derive(Debug, Clone)]
pub struct DramaSender {
    row_addr: u64,
    window: Span,
    start: Time,
    think: Span,
    bits: Vec<u8>,
}

impl DramaSender {
    /// Creates a sender transmitting `bits`.
    pub fn new(
        row_addr: u64,
        window: Span,
        start: Time,
        think: Span,
        bits: Vec<u8>,
    ) -> DramaSender {
        DramaSender {
            row_addr,
            window,
            start,
            think,
            bits,
        }
    }
}

impl Process for DramaSender {
    fn step(&mut self, now: Time) -> ProcessStep {
        if now < self.start {
            return ProcessStep::SleepUntil(self.start);
        }
        let w = ((now - self.start) / self.window) as usize;
        if w >= self.bits.len() {
            return ProcessStep::Halt;
        }
        if self.bits[w] == 0 {
            return ProcessStep::SleepUntil(self.start + self.window * (w as u64 + 1));
        }
        ProcessStep::Access(MemAccess::flushed_load(self.row_addr, self.think))
    }

    fn label(&self) -> String {
        "drama-tx".to_owned()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_counts_conflicts_per_window() {
        let cfg = DramaConfig {
            row_addr: 0x0,
            window: Span::from_us(2),
            start: Time::ZERO,
            n_windows: 2,
            think: Span::from_ns(30),
            conflict_threshold: Span::from_ns(110),
        };
        let mut rx = DramaReceiver::new(cfg);
        let mut t = Time::ZERO;
        // Window 0: three conflict-latency accesses.
        for _ in 0..3 {
            assert!(matches!(rx.step(t), ProcessStep::Access(_)));
            t += Span::from_ns(150);
        }
        // Window 1: hits only.
        t = Time::from_us(2);
        for _ in 0..3 {
            assert!(matches!(rx.step(t), ProcessStep::Access(_)));
            t += Span::from_ns(60);
        }
        let _ = rx.step(t);
        assert_eq!(rx.decode(0.5), vec![1, 0]);
    }

    #[test]
    fn sender_sleeps_on_zero_bits() {
        let mut tx = DramaSender::new(
            0x40,
            Span::from_us(2),
            Time::ZERO,
            Span::from_ns(30),
            vec![0, 1],
        );
        assert_eq!(
            tx.step(Time::ZERO),
            ProcessStep::SleepUntil(Time::from_us(2))
        );
        assert!(matches!(tx.step(Time::from_us(2)), ProcessStep::Access(_)));
        assert_eq!(tx.step(Time::from_us(4)), ProcessStep::Halt);
    }
}
