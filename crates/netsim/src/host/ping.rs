//! The `ping` workload model: periodic ICMP echo trials with RTT and
//! loss accounting, matching the paper's use of `ping` for the latency
//! metric (Figure 11b).

use super::AppSend;
use crate::time::SimTime;
use std::net::Ipv4Addr;

/// Results of one `ping` run.
#[derive(Debug, Clone, PartialEq)]
pub struct PingStats {
    /// The run's label (the command line that started it).
    pub label: String,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Per-trial RTTs in milliseconds; `None` = lost (the paper's
    /// "latency is infinite" asterisk case).
    rtts: Vec<Option<f64>>,
    /// Echo requests sent.
    transmitted: u32,
}

impl PingStats {
    /// Echo requests sent.
    pub fn transmitted(&self) -> u32 {
        self.transmitted
    }

    /// Echo replies received.
    pub fn received(&self) -> u32 {
        self.rtts.iter().filter(|r| r.is_some()).count() as u32
    }

    /// Per-trial RTTs in milliseconds (`None` = lost).
    pub fn rtts_ms(&self) -> &[Option<f64>] {
        &self.rtts
    }

    /// Mean RTT over answered trials, if any.
    pub fn avg_rtt_ms(&self) -> Option<f64> {
        let answered: Vec<f64> = self.rtts.iter().flatten().copied().collect();
        if answered.is_empty() {
            None
        } else {
            Some(answered.iter().sum::<f64>() / answered.len() as f64)
        }
    }

    /// Whether every trial was lost — the paper's denial-of-service
    /// condition for latency ("infinite").
    pub fn is_denial_of_service(&self) -> bool {
        self.transmitted > 0 && self.received() == 0
    }
}

/// A running `ping` instance on a host.
#[derive(Debug, Clone)]
pub(crate) struct PingApp {
    label: String,
    dst: Ipv4Addr,
    count: u32,
    interval: SimTime,
    ident: u16,
    sent_at: Vec<SimTime>,
    rtts: Vec<Option<f64>>,
}

impl PingApp {
    pub(crate) fn new(
        label: String,
        dst: Ipv4Addr,
        count: u32,
        interval: SimTime,
        ident: u16,
    ) -> PingApp {
        PingApp {
            label,
            dst,
            count,
            interval,
            ident,
            sent_at: Vec::new(),
            rtts: Vec::new(),
        }
    }

    /// The app timer fired: the next trial's echo request (sequence
    /// numbers are 1-based) and when to fire next; nothing once all
    /// trials are out.
    pub(crate) fn on_timer(&mut self, now: SimTime) -> (AppSend, Option<SimTime>) {
        if self.sent_at.len() as u32 >= self.count {
            return (AppSend::Nothing, None);
        }
        self.sent_at.push(now);
        self.rtts.push(None);
        let seq = self.sent_at.len() as u16;
        let next = ((self.sent_at.len() as u32) < self.count).then(|| now + self.interval);
        let echo = AppSend::Echo {
            dst: self.dst,
            ident: self.ident,
            seq,
            spoof: None,
        };
        (echo, next)
    }

    /// An echo reply with our identifier arrived.
    pub(crate) fn on_reply(&mut self, seq: u16, now: SimTime) {
        let idx = seq as usize;
        if idx == 0 || idx > self.sent_at.len() {
            return;
        }
        let sent = self.sent_at[idx - 1];
        if self.rtts[idx - 1].is_none() {
            self.rtts[idx - 1] = Some(now.saturating_sub(sent).as_millis_f64());
        }
    }

    pub(crate) fn stats(&self) -> PingStats {
        PingStats {
            label: self.label.clone(),
            dst: self.dst,
            rtts: self.rtts.clone(),
            transmitted: self.sent_at.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fires `p`'s timer at `now`: the sequence number sent and the next
    /// firing, or `None` once all trials are out.
    fn fire(p: &mut PingApp, now: SimTime) -> Option<(u16, Option<SimTime>)> {
        match p.on_timer(now) {
            (
                AppSend::Echo {
                    seq, spoof: None, ..
                },
                next,
            ) => Some((seq, next)),
            (AppSend::Nothing, None) => None,
            other => panic!("not a ping: {other:?}"),
        }
    }

    fn app(count: u32) -> PingApp {
        PingApp::new(
            "test".into(),
            "10.0.0.9".parse().unwrap(),
            count,
            SimTime::from_secs(1),
            0,
        )
    }

    #[test]
    fn emits_count_trials_then_stops() {
        let mut p = app(3);
        let mut now = SimTime::ZERO;
        let mut seqs = Vec::new();
        while let Some((seq, next)) = fire(&mut p, now) {
            seqs.push(seq);
            match next {
                Some(t) => now = t,
                None => break,
            }
        }
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(fire(&mut p, now), None);
        assert_eq!(p.stats().transmitted(), 3);
    }

    #[test]
    fn rtt_and_loss_accounting() {
        let mut p = app(3);
        let (s1, n1) = fire(&mut p, SimTime::ZERO).unwrap();
        p.on_reply(s1, SimTime::from_millis(2));
        let (_s2, n2) = fire(&mut p, n1.unwrap()).unwrap();
        // trial 2 lost
        let (s3, _) = fire(&mut p, n2.unwrap()).unwrap();
        // Sent at t=2 s, answered 3 ms later.
        p.on_reply(s3, SimTime::from_millis(2003));
        let st = p.stats();
        assert_eq!(st.transmitted(), 3);
        assert_eq!(st.received(), 2);
        assert_eq!(st.rtts_ms(), [Some(2.0), None, Some(3.0)]);
        assert!((st.avg_rtt_ms().unwrap() - 2.5).abs() < 1e-9);
        assert!(!st.is_denial_of_service());
    }

    #[test]
    fn all_lost_is_denial_of_service() {
        let mut p = app(2);
        let (_, n) = fire(&mut p, SimTime::ZERO).unwrap();
        fire(&mut p, n.unwrap());
        let st = p.stats();
        assert!(st.is_denial_of_service());
        assert_eq!(st.avg_rtt_ms(), None);
    }

    #[test]
    fn duplicate_replies_do_not_overwrite() {
        let mut p = app(1);
        let (s, _) = fire(&mut p, SimTime::ZERO).unwrap();
        p.on_reply(s, SimTime::from_millis(1));
        p.on_reply(s, SimTime::from_millis(50));
        assert_eq!(p.stats().rtts_ms()[0], Some(1.0));
    }

    #[test]
    fn bogus_sequence_numbers_are_ignored() {
        let mut p = app(1);
        fire(&mut p, SimTime::ZERO);
        p.on_reply(0, SimTime::from_millis(1));
        p.on_reply(99, SimTime::from_millis(1));
        assert_eq!(p.stats().received(), 0);
    }
}
