//! Workload commands: the simulator's equivalent of running `ping` or
//! `iperf` on a testbed host.
//!
//! The attack language's `SYSCMD(host, cmd)` action remotely executes a
//! shell command on a host; here the recognized command lines are parsed
//! into typed [`HostCommand`]s that drive the built-in workload
//! applications.

use crate::engine::NodeId;
use crate::fault::FaultSpec;
use crate::time::SimTime;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// The default `iperf` TCP port.
pub(crate) const IPERF_PORT: u16 = 5001;

/// A workload command executed on a simulated host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostCommand {
    /// Run `ping` trials toward `dst`.
    Ping {
        /// The host running ping.
        host: NodeId,
        /// Destination address.
        dst: Ipv4Addr,
        /// Number of echo trials.
        count: u32,
        /// Interval between trials.
        interval: SimTime,
        /// Label under which results are reported.
        label: String,
    },
    /// Start an `iperf` server (TCP sink).
    IperfServer {
        /// The host running the server.
        host: NodeId,
        /// Listening port.
        port: u16,
    },
    /// Run an `iperf` client (TCP bulk sender) for `duration`.
    IperfClient {
        /// The host running the client.
        host: NodeId,
        /// Server address.
        dst: Ipv4Addr,
        /// Server port.
        port: u16,
        /// Transfer duration.
        duration: SimTime,
        /// Label under which results are reported.
        label: String,
    },
    /// Run the flow-table capacity inference probe toward `dst`
    /// (warmup, spoofed-source fill, reverse sweep; see
    /// [`ProbeStats`](crate::ProbeStats)).
    Probe {
        /// The host running the probe.
        host: NodeId,
        /// Victim destination address.
        dst: Ipv4Addr,
        /// Spoofed flows to send during the fill phase.
        fill: u32,
        /// Interval between probe packets.
        gap: SimTime,
        /// Label under which results are reported.
        label: String,
    },
    /// Record a marker in the trace (no behavioural effect).
    Marker {
        /// Marker text.
        label: String,
    },
    /// Inject an environment fault (link/process; see
    /// [`FaultSpec::parse`] for the grammar). Targets are named, not
    /// host-scoped: the issuing host is irrelevant.
    Fault(FaultSpec),
}

/// Error parsing a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCommandError(String);

impl fmt::Display for ParseCommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognized host command: {}", self.0)
    }
}

impl std::error::Error for ParseCommandError {}

impl HostCommand {
    /// Parses a `ping`/`iperf` command line as the attack language's
    /// `SYSCMD` would issue it, to run on `host`.
    ///
    /// Recognized forms:
    ///
    /// * `ping [-c COUNT] [-i SECS] DST`
    /// * `iperf -s [-p PORT]`
    /// * `iperf -c DST [-p PORT] [-t SECS]`
    /// * `capprobe [-n FILL] [-i SECS] DST` (capacity inference probe)
    /// * `echo TEXT` (becomes a trace marker)
    /// * `fault SPEC` (environment fault; see [`FaultSpec::parse`])
    ///
    /// # Errors
    ///
    /// Returns [`ParseCommandError`] for anything else.
    pub fn parse(host: NodeId, cmd: &str) -> Result<HostCommand, ParseCommandError> {
        let mut args = Args {
            cmd,
            tokens: cmd.split_whitespace(),
        };
        let label = cmd.to_string();
        match args.tokens.next() {
            Some("ping") => {
                let (mut count, mut interval, mut dst) = (4, SimTime::from_secs(1), None);
                while let Some(token) = args.tokens.next() {
                    match token {
                        "-c" => count = args.value()?,
                        "-i" => interval = args.secs()?,
                        addr => dst = Some(args.parse(addr)?),
                    }
                }
                let dst = dst.ok_or_else(|| args.err())?;
                Ok(HostCommand::Ping {
                    host,
                    dst,
                    count,
                    interval,
                    label,
                })
            }
            Some("iperf") => {
                let (mut server, mut dst, mut port, mut secs) = (false, None, IPERF_PORT, 10);
                while let Some(token) = args.tokens.next() {
                    match token {
                        "-s" => server = true,
                        "-c" => dst = Some(args.value()?),
                        "-p" => port = args.value()?,
                        "-t" => secs = args.value()?,
                        _ => return Err(args.err()),
                    }
                }
                if server {
                    return Ok(HostCommand::IperfServer { host, port });
                }
                let dst = dst.ok_or_else(|| args.err())?;
                let duration = SimTime::from_secs(secs);
                Ok(HostCommand::IperfClient {
                    host,
                    dst,
                    port,
                    duration,
                    label,
                })
            }
            Some("capprobe") => {
                let (mut fill, mut gap, mut dst) = (256, SimTime::from_millis(50), None);
                while let Some(token) = args.tokens.next() {
                    match token {
                        "-n" => {
                            fill = args.value()?;
                            if fill == 0 {
                                return Err(args.err());
                            }
                        }
                        "-i" => gap = args.secs()?,
                        addr => dst = Some(args.parse(addr)?),
                    }
                }
                let dst = dst.ok_or_else(|| args.err())?;
                Ok(HostCommand::Probe {
                    host,
                    dst,
                    fill,
                    gap,
                    label,
                })
            }
            Some("echo") => Ok(HostCommand::Marker {
                label: args.tokens.collect::<Vec<_>>().join(" "),
            }),
            Some("fault") => {
                let spec = cmd.trim_start().strip_prefix("fault").unwrap_or("");
                FaultSpec::parse(spec)
                    .map(HostCommand::Fault)
                    .map_err(|_| args.err())
            }
            _ => Err(args.err()),
        }
    }
}

/// The arguments of one command line, read token by token: each arm of
/// [`HostCommand::parse`] names its flags, and this reads their values.
struct Args<'a> {
    cmd: &'a str,
    tokens: std::str::SplitWhitespace<'a>,
}

impl Args<'_> {
    /// The whole line, refused.
    fn err(&self) -> ParseCommandError {
        ParseCommandError(self.cmd.to_string())
    }

    fn parse<T: FromStr>(&self, token: &str) -> Result<T, ParseCommandError> {
        token.parse().map_err(|_| self.err())
    }

    /// The value after a flag.
    fn value<T: FromStr>(&mut self) -> Result<T, ParseCommandError> {
        let token = self.tokens.next().ok_or_else(|| self.err())?;
        self.parse(token)
    }

    /// The value after a flag, as a finite, positive number of seconds.
    fn secs(&mut self) -> Result<SimTime, ParseCommandError> {
        let secs: f64 = self.value()?;
        match secs.is_finite() && secs > 0.0 {
            true => Ok(SimTime::from_secs_f64(secs)),
            false => Err(self.err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ping() {
        let c = HostCommand::parse(NodeId(1), "ping -c 60 -i 1 10.0.0.6").unwrap();
        match c {
            HostCommand::Ping {
                host,
                dst,
                count,
                interval,
                ..
            } => {
                assert_eq!(host, NodeId(1));
                assert_eq!(dst, Ipv4Addr::new(10, 0, 0, 6));
                assert_eq!(count, 60);
                assert_eq!(interval, SimTime::from_secs(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ping_defaults() {
        let c = HostCommand::parse(NodeId(0), "ping 10.0.0.1").unwrap();
        assert!(matches!(c, HostCommand::Ping { count: 4, .. }));
    }

    #[test]
    fn parses_iperf_server_and_client() {
        assert_eq!(
            HostCommand::parse(NodeId(6), "iperf -s").unwrap(),
            HostCommand::IperfServer {
                host: NodeId(6),
                port: IPERF_PORT
            }
        );
        let c = HostCommand::parse(NodeId(1), "iperf -c 10.0.0.6 -t 10").unwrap();
        match c {
            HostCommand::IperfClient {
                dst,
                port,
                duration,
                ..
            } => {
                assert_eq!(dst, Ipv4Addr::new(10, 0, 0, 6));
                assert_eq!(port, IPERF_PORT);
                assert_eq!(duration, SimTime::from_secs(10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_fractional_ping_interval() {
        let c = HostCommand::parse(NodeId(0), "ping -i 0.2 -c 5 10.0.0.9").unwrap();
        assert!(matches!(
            c,
            HostCommand::Ping {
                interval: SimTime(200_000_000),
                ..
            }
        ));
    }

    #[test]
    fn parses_capprobe() {
        let c = HostCommand::parse(NodeId(2), "capprobe -n 128 -i 0.02 10.0.0.6").unwrap();
        assert_eq!(
            c,
            HostCommand::Probe {
                host: NodeId(2),
                dst: Ipv4Addr::new(10, 0, 0, 6),
                fill: 128,
                gap: SimTime::from_millis(20),
                label: "capprobe -n 128 -i 0.02 10.0.0.6".into(),
            }
        );
        assert!(matches!(
            HostCommand::parse(NodeId(0), "capprobe 10.0.0.6").unwrap(),
            HostCommand::Probe { fill: 256, .. }
        ));
        assert!(HostCommand::parse(NodeId(0), "capprobe").is_err());
        assert!(HostCommand::parse(NodeId(0), "capprobe -n 0 10.0.0.6").is_err());
    }

    #[test]
    fn echo_becomes_marker() {
        assert_eq!(
            HostCommand::parse(NodeId(0), "echo phase two begins").unwrap(),
            HostCommand::Marker {
                label: "phase two begins".into()
            }
        );
    }

    #[test]
    fn parses_fault_commands() {
        use crate::fault::LinkChange;
        let c = HostCommand::parse(NodeId(0), "fault link s1-s2 down").unwrap();
        assert_eq!(
            c,
            HostCommand::Fault(FaultSpec::Link {
                a: "s1".into(),
                b: "s2".into(),
                change: LinkChange::Down,
            })
        );
        assert!(HostCommand::parse(NodeId(0), "fault controller c1 crash").is_ok());
        assert!(HostCommand::parse(NodeId(0), "fault switch s1 restart").is_ok());
        assert!(HostCommand::parse(NodeId(0), "fault").is_err());
        assert!(HostCommand::parse(NodeId(0), "fault link s1-s2 explode").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(HostCommand::parse(NodeId(0), "rm -rf /").is_err());
        assert!(HostCommand::parse(NodeId(0), "ping").is_err());
        assert!(HostCommand::parse(NodeId(0), "iperf -c notanip").is_err());
        assert!(HostCommand::parse(NodeId(0), "ping -i -1 10.0.0.1").is_err());
        assert!(HostCommand::parse(NodeId(0), "").is_err());
        assert!(HostCommand::parse(NodeId(0), "ping -c").is_err());
        assert!(HostCommand::parse(NodeId(0), "iperf -x").is_err());
        assert!(HostCommand::parse(NodeId(0), "iperf -p 70000 -c 10.0.0.1").is_err());
        assert!(HostCommand::parse(NodeId(0), "capprobe -i 0 10.0.0.6").is_err());
        assert!(HostCommand::parse(NodeId(0), "ping -c many 10.0.0.1").is_err());
    }
}
