//! Deterministic environment-fault injection.
//!
//! ATTAIN descends from classic fault injection (paper §II): its attacks
//! are *intentional* faults delivered through the control-plane proxy.
//! This module adds the complementary *environmental* faults — link
//! failures, loss/corruption, process crash/restart — so experiments can
//! compose both and measure graceful degradation (fail-secure lockdown,
//! standalone fallback, post-restart reconvergence).
//!
//! Every fault is a virtual-time event: a [`FaultSpec`] applied at a
//! scheduled instant. Randomized faults (per-frame loss and corruption)
//! draw from a per-link [xorshift64*](DetRng) stream derived from a
//! single scenario seed, so a run is a pure function of (topology,
//! schedule, seed): identical seeds yield byte-identical traces, which
//! `scripts/check.sh` enforces.
//!
//! Faults are schedulable three ways:
//!
//! * programmatically — [`Simulation::schedule_fault`](crate::Simulation::schedule_fault)
//!   or a [`FaultPlan`];
//! * from the workload schedule — `HostCommand::parse` accepts
//!   `fault link s1-s2 down` style command lines;
//! * from the attack language — the DSL's `fault("…")` action routes
//!   through the injector to the same [`FaultSpec`] grammar.

use crate::time::SimTime;
use std::fmt;

/// Deterministic xorshift64* pseudo-random stream.
///
/// Small, fast, and — crucially — *ours*: fault randomness must never
/// depend on an external crate's generator whose sequence could change
/// under us, because trace determinism across builds is a tested
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a stream from `seed`, decorrelating nearby seeds with a
    /// splitmix64 scramble so per-link streams (seed ⊕ link index) do
    /// not march in lockstep.
    pub fn new(seed: u64) -> DetRng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        DetRng {
            // xorshift has a zero fixed point; avoid it.
            state: if z == 0 { 0x4d59_5df4_d0f3_3173 } else { z },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// `true` with probability `pct`/100.
    pub(crate) fn chance(&mut self, pct: u8) -> bool {
        if pct == 0 {
            return false;
        }
        if pct >= 100 {
            return true;
        }
        (self.next_u64() % 100) < pct as u64
    }

    /// A value in `0..bound` (`0` when `bound` is `0`).
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// A change to one link, the part of a link fault after `link A-B`.
/// The link applies it to itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkChange {
    /// Sever the link: frames in flight and frames offered while down
    /// are dropped.
    Down,
    /// Restore a severed link.
    Up,
    /// `count` down/up cycles: down for `down`, then up for `up`.
    Flap {
        /// Number of down/up cycles.
        count: u32,
        /// How long each down phase lasts.
        down: SimTime,
        /// How long each up phase lasts (before the next cycle).
        up: SimTime,
    },
    /// Override bandwidth and/or propagation delay.
    Degrade {
        /// New bandwidth in bits per second (`None` keeps the current).
        bandwidth_bps: Option<u64>,
        /// New one-way delay (`None` keeps the current).
        delay: Option<SimTime>,
    },
    /// Bring the link up with nominal bandwidth and delay and no loss
    /// or corruption.
    Restore,
    /// Drop each traversing frame with this probability in percent.
    Loss(u8),
    /// Flip a bit in each traversing frame with this probability in
    /// percent.
    Corrupt(u8),
}

impl LinkChange {
    /// Parses the words after `link A-B`; `None` for anything else.
    fn parse(words: &[&str]) -> Option<LinkChange> {
        let secs = |s: &str| {
            let secs: f64 = s.parse().ok()?;
            (secs.is_finite() && secs >= 0.0).then(|| SimTime::from_secs_f64(secs))
        };
        let pct = |s: &str| s.parse::<u8>().ok().filter(|&p| p <= 100);
        Some(match words {
            ["down"] => LinkChange::Down,
            ["up"] => LinkChange::Up,
            ["restore"] => LinkChange::Restore,
            ["flap", count, down, up] => LinkChange::Flap {
                count: count.parse().ok()?,
                down: secs(down)?,
                up: secs(up)?,
            },
            ["loss", p] => LinkChange::Loss(pct(p)?),
            ["corrupt", p] => LinkChange::Corrupt(pct(p)?),
            ["degrade", opts @ ..] if !opts.is_empty() => {
                let (mut bandwidth_bps, mut delay) = (None, None);
                for opt in opts.chunks(2) {
                    match opt {
                        ["bw", bw] => bandwidth_bps = Some(bw.parse().ok().filter(|&b| b > 0)?),
                        ["delay", d] => delay = Some(secs(d)?),
                        _ => return None,
                    }
                }
                LinkChange::Degrade {
                    bandwidth_bps,
                    delay,
                }
            }
            _ => return None,
        })
    }
}

impl fmt::Display for LinkChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkChange::Down => write!(f, "down"),
            LinkChange::Up => write!(f, "up"),
            LinkChange::Flap { count, down, up } => {
                let (down, up) = (down.as_secs_f64(), up.as_secs_f64());
                write!(f, "flap {count} {down} {up}")
            }
            LinkChange::Degrade {
                bandwidth_bps,
                delay,
            } => {
                write!(f, "degrade")?;
                if let Some(bw) = bandwidth_bps {
                    write!(f, " bw {bw}")?;
                }
                if let Some(d) = delay {
                    write!(f, " delay {}", d.as_secs_f64())?;
                }
                Ok(())
            }
            LinkChange::Restore => write!(f, "restore"),
            LinkChange::Loss(pct) => write!(f, "loss {pct}"),
            LinkChange::Corrupt(pct) => write!(f, "corrupt {pct}"),
        }
    }
}

/// One environment fault, its target named as in the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// A change to the link between nodes `a` and `b` (either order).
    Link {
        /// One endpoint's node name.
        a: String,
        /// The other endpoint's node name.
        b: String,
        /// What happens to the link.
        change: LinkChange,
    },
    /// Kill the named controller process: connections drop, app state
    /// is lost.
    ControllerCrash(String),
    /// Restart the named crashed controller with pristine app and
    /// handshake state.
    ControllerRestart(String),
    /// Power-cycle the named switch: flow table wiped (no
    /// `FLOW_REMOVED`), buffers and counters cleared, handshake
    /// replayed from scratch. The fail mode governs forwarding until
    /// reconnection completes.
    SwitchRestart(String),
}

impl FaultSpec {
    /// Parses the textual grammar (without the leading `fault` keyword):
    ///
    /// * `link A-B down` / `link A-B up`
    /// * `link A-B flap COUNT DOWN_SECS UP_SECS`
    /// * `link A-B degrade [bw BPS] [delay SECS]`
    /// * `link A-B loss PCT` / `link A-B corrupt PCT` (0–100)
    /// * `link A-B restore`
    /// * `controller NAME crash` / `controller NAME restart`
    /// * `switch NAME restart`
    ///
    /// # Errors
    ///
    /// Returns [`ParseFaultError`] for anything else.
    pub fn parse(spec: &str) -> Result<FaultSpec, ParseFaultError> {
        let words: Vec<&str> = spec.split_whitespace().collect();
        let parsed = match words.as_slice() {
            ["link", ends, change @ ..] => ends
                .split_once('-')
                .filter(|(a, b)| !a.is_empty() && !b.is_empty())
                .zip(LinkChange::parse(change))
                .map(|((a, b), change)| FaultSpec::Link {
                    a: a.to_string(),
                    b: b.to_string(),
                    change,
                }),
            ["controller", c, "crash"] => Some(FaultSpec::ControllerCrash(c.to_string())),
            ["controller", c, "restart"] => Some(FaultSpec::ControllerRestart(c.to_string())),
            ["switch", s, "restart"] => Some(FaultSpec::SwitchRestart(s.to_string())),
            _ => None,
        };
        parsed.ok_or_else(|| ParseFaultError(spec.to_string()))
    }

    /// The fault as the trace records it: the kind of target (`link`,
    /// `controller` or `switch`), its name (`s1-s2` for a link) and
    /// what happens to it.
    pub(crate) fn parts(&self) -> (&'static str, String, String) {
        match self {
            FaultSpec::Link { a, b, change } => ("link", format!("{a}-{b}"), change.to_string()),
            FaultSpec::ControllerCrash(c) => ("controller", c.clone(), "crash".into()),
            FaultSpec::ControllerRestart(c) => ("controller", c.clone(), "restart".into()),
            FaultSpec::SwitchRestart(s) => ("switch", s.clone(), "restart".into()),
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, name, what) = self.parts();
        write!(f, "fault {kind} {name} {what}")
    }
}

/// Error parsing a fault specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError(String);

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for ParseFaultError {}

/// A schedule of faults plus the scenario seed for randomized ones.
///
/// Built up front and applied to a built
/// [`Simulation`](crate::Simulation) via
/// [`apply_fault_plan`](crate::Simulation::apply_fault_plan).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scenario seed for per-link loss/corruption streams.
    pub seed: u64,
    /// Scheduled faults, in any order (the event queue sorts them).
    pub events: Vec<(SimTime, FaultSpec)>,
}

impl FaultPlan {
    /// Creates an empty plan with the given scenario seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Schedules `spec` at absolute virtual time `at`.
    fn at(&mut self, at: SimTime, spec: FaultSpec) -> &mut Self {
        self.events.push((at, spec));
        self
    }

    /// Schedules a textual spec (the [`FaultSpec::parse`] grammar) at
    /// `at`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseFaultError`] if `spec` does not parse.
    pub fn at_str(&mut self, at: SimTime, spec: &str) -> Result<&mut Self, ParseFaultError> {
        let spec = FaultSpec::parse(spec)?;
        Ok(self.at(at, spec))
    }
}

/// Per-link transmission and fault counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStats {
    /// One endpoint's node name.
    pub a: String,
    /// The other endpoint's node name.
    pub b: String,
    /// Frames accepted for transmission (both directions).
    pub tx: u64,
    /// Frames dropped by queue overflow (drop-tail, both directions).
    pub queue_drops: u64,
    /// Frames dropped because the link was down.
    pub down_drops: u64,
    /// Frames dropped by the seeded loss process.
    pub lost: u64,
    /// Frames bit-flipped by the seeded corruption process.
    pub corrupted: u64,
    /// Up→down transitions so far.
    pub down_events: u64,
    /// Whether the link is currently up.
    pub up: bool,
}

impl fmt::Display for LinkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{}: tx {} qdrop {} down-drop {} lost {} corrupt {} down-events {}{}",
            self.a,
            self.b,
            self.tx,
            self.queue_drops,
            self.down_drops,
            self.lost,
            self.corrupted,
            self.down_events,
            if self.up { "" } else { " [DOWN]" },
        )
    }
}

/// Per-controller fault counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerFaultStats {
    /// Controller name.
    pub name: String,
    /// Crash faults applied.
    pub crashes: u64,
    /// Restart faults applied.
    pub restarts: u64,
    /// Whether the process is currently alive.
    pub alive: bool,
}

/// Per-switch fault counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchFaultStats {
    /// Switch name.
    pub name: String,
    /// Restart faults applied.
    pub restarts: u64,
    /// Packets dropped in fail-secure lockdown.
    pub secure_drops: u64,
    /// Packets forwarded by standalone learning while disconnected.
    pub standalone_forwards: u64,
}

/// Aggregate fault/drop/corruption accounting for one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Per-link counters, in link-creation order.
    pub links: Vec<LinkStats>,
    /// Per-controller counters, in controller order.
    pub controllers: Vec<ControllerFaultStats>,
    /// Per-switch counters, in node order.
    pub switches: Vec<SwitchFaultStats>,
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "links:")?;
        for l in &self.links {
            writeln!(f, "  {l}")?;
        }
        writeln!(f, "controllers:")?;
        for c in &self.controllers {
            writeln!(
                f,
                "  {}: crashes {} restarts {}{}",
                c.name,
                c.crashes,
                c.restarts,
                if c.alive { "" } else { " [DOWN]" },
            )?;
        }
        writeln!(f, "switches:")?;
        for s in &self.switches {
            writeln!(
                f,
                "  {}: restarts {} secure-drops {} standalone-forwards {}",
                s.name, s.restarts, s.secure_drops, s.standalone_forwards,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        let mut c = DetRng::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn rng_zero_seed_works() {
        let mut r = DetRng::new(0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn chance_boundaries() {
        let mut r = DetRng::new(1);
        assert!(!r.chance(0));
        assert!(r.chance(100));
        // 50% over many draws lands near half.
        let hits = (0..10_000).filter(|_| r.chance(50)).count();
        assert!((4_000..6_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn parses_link_faults() {
        let link = |spec: &str| match FaultSpec::parse(spec).unwrap() {
            FaultSpec::Link { change, .. } => change,
            other => panic!("{spec} parsed as {other:?}"),
        };
        assert_eq!(
            FaultSpec::parse("link s1-s2 down").unwrap(),
            FaultSpec::Link {
                a: "s1".into(),
                b: "s2".into(),
                change: LinkChange::Down,
            }
        );
        assert_eq!(
            link("link s1-s2 flap 3 0.5 2"),
            LinkChange::Flap {
                count: 3,
                down: SimTime::from_millis(500),
                up: SimTime::from_secs(2),
            }
        );
        assert_eq!(link("link h1-s1 loss 25"), LinkChange::Loss(25));
        assert_eq!(link("link h1-s1 corrupt 100"), LinkChange::Corrupt(100));
        assert_eq!(
            link("link s1-s2 degrade bw 1000000 delay 0.01"),
            LinkChange::Degrade {
                bandwidth_bps: Some(1_000_000),
                delay: Some(SimTime::from_millis(10)),
            }
        );
        assert_eq!(link("link s1-s2 restore"), LinkChange::Restore);
    }

    #[test]
    fn parses_process_faults() {
        assert_eq!(
            FaultSpec::parse("controller c1 crash").unwrap(),
            FaultSpec::ControllerCrash("c1".into())
        );
        assert_eq!(
            FaultSpec::parse("controller c1 restart").unwrap(),
            FaultSpec::ControllerRestart("c1".into())
        );
        assert_eq!(
            FaultSpec::parse("switch s2 restart").unwrap(),
            FaultSpec::SwitchRestart("s2".into())
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "link s1 down",
            "link s1-s2 explode",
            "link -s2 down",
            "link s1-s2 loss 101",
            "link s1-s2 loss -3",
            "link s1-s2 flap 3 0.5",
            "link s1-s2 degrade",
            "link s1-s2 degrade bw 0",
            "controller c1 reboot",
            "switch s1 crash",
            "host h1 down",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        for spec in [
            "link s1-s2 down",
            "link s1-s2 up",
            "link s1-s2 flap 2 0.5 1",
            "link s1-s2 degrade bw 1000000 delay 0.01",
            "link s1-s2 degrade delay 0.25",
            "link s1-s2 restore",
            "link h1-s1 loss 10",
            "link h1-s1 corrupt 5",
            "controller c1 crash",
            "controller c1 restart",
            "switch s3 restart",
        ] {
            let parsed = FaultSpec::parse(spec).unwrap();
            let rendered = parsed.to_string();
            assert_eq!(rendered, format!("fault {spec}"));
            let stripped = rendered.strip_prefix("fault ").unwrap();
            assert_eq!(FaultSpec::parse(stripped).unwrap(), parsed);
        }
    }

    #[test]
    fn plan_accumulates_events() {
        let mut plan = FaultPlan::seeded(7);
        plan.at_str(SimTime::from_secs(1), "link s1-s2 down")
            .unwrap()
            .at_str(SimTime::from_secs(2), "link s1-s2 up")
            .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 2);
        assert!(plan.at_str(SimTime::ZERO, "nonsense").is_err());
    }
}
